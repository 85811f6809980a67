//! Driving the `profirt` program the way its users do: `campaign run` on a
//! spec file, `serve --listen` as a TCP daemon and `serve --stdin` as a
//! batch filter. Every child is reaped before the call returns (or, for
//! the daemon, by [`Daemon::stop`]), so its peak memory is known.

use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::sys;

/// One finished invocation.
#[derive(Clone, Debug)]
pub struct Finished {
    /// `true` on exit code 0.
    pub ok: bool,
    /// Wall time from spawn to exit, seconds.
    pub wall_s: f64,
    /// Peak resident memory, kilobytes.
    pub max_rss_kb: u64,
}

/// Runs `bin args…` with stdin and stdout redirected to files, and waits
/// for it.
pub fn run(
    bin: &Path,
    args: &[&str],
    stdin: Option<&Path>,
    stdout: &Path,
) -> Result<Finished, String> {
    let out = File::create(stdout).map_err(|e| format!("create {}: {e}", stdout.display()))?;
    let input = match stdin {
        Some(p) => Stdio::from(File::open(p).map_err(|e| format!("open {}: {e}", p.display()))?),
        None => Stdio::null(),
    };
    let started = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(input)
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let reaped = sys::reap(child).map_err(|e| format!("wait for {}: {e}", bin.display()))?;
    Ok(Finished {
        ok: reaped.status.success(),
        wall_s: started.elapsed().as_secs_f64(),
        max_rss_kb: reaped.max_rss_kb,
    })
}

/// A running `profirt serve --listen` daemon. Dropping it without
/// [`Daemon::stop`] still kills and reaps the process.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = sys::reap(child);
        }
    }
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port and waits until it
    /// reports that it is listening. Its log goes to `log`.
    pub fn start(bin: &Path, workers: usize, log: &Path) -> Result<Daemon, String> {
        let err = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let workers = workers.to_string();
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                workers.as_str(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = parse_listening(&text) {
                return Ok(Daemon {
                    child: Some(child),
                    addr,
                });
            }
            let exited = child.try_wait().map_err(|e| format!("daemon: {e}"))?;
            if exited.is_some() || Instant::now() > deadline {
                if exited.is_none() {
                    let _ = child.kill();
                    let _ = sys::reap(child);
                }
                return Err(format!("daemon did not start listening: {text:?}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Stops the daemon and returns its peak resident memory, kilobytes.
    pub fn stop(mut self) -> Result<u64, String> {
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        let killed = child.kill().map_err(|e| format!("stop daemon: {e}"));
        let reaped = sys::reap(child)
            .map(|r| r.max_rss_kb)
            .map_err(|e| format!("reap daemon: {e}"));
        killed.and(reaped)
    }
}

fn parse_listening(log: &str) -> Option<SocketAddr> {
    let rest = log.split("listening on ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_parses() {
        let log = "profirt serve: listening on 127.0.0.1:40123 (2 workers, queue 256); …";
        assert_eq!(
            parse_listening(log),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        assert_eq!(parse_listening("starting"), None);
    }
}
