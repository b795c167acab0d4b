//! Host facts stamped into every result, so two results are compared only
//! when they come from the same kind of host.

use std::process::Command;

/// Facts about the measuring host and build. Results whose facts differ
/// are not comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Online CPUs as `nproc` reports them.
    pub nproc: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// CPU brand string.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
}

impl Host {
    /// Reads the facts of this host.
    pub fn probe() -> Self {
        Self {
            nproc: command_line("nproc", &[]).unwrap_or_else(|| "unknown".into()),
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model(),
            rustc: env!("SERVEBENCH_RUSTC_VERSION").to_string(),
        }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args).stderr(std::process::Stdio::null());
    // Keep git from looking for a repository above the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// The commit of the working directory, when it is a git checkout.
pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// The CPU brand string from `cpuid`.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown x86_64".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

/// The CPU brand string (not read on this architecture).
#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}
