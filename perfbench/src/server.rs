//! The process under test: `fannet listen` at its defaults on loopback,
//! plus what the benchmark reads about it from outside — its readiness
//! time, CPU time and peak memory from `/proc`, and the `stats` op.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::wire::EngineCounters;

/// How long any single server reply may take before the run is abandoned.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `fannet listen` child. Dropping it kills and reaps the
/// process, so no server outlives a failed run.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Held open so the child never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound loopback address.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `fannet listen` at its defaults on an ephemeral loopback
    /// port, with its stderr (info-level connection logs) appended to
    /// `log`. Returns the server and the seconds from spawn to its
    /// `listening on` line.
    ///
    /// # Errors
    ///
    /// Returns a message when the process cannot start or never reports
    /// readiness.
    pub fn spawn(fannet: &Path, model: &Path, log: &Path) -> Result<(Server, f64), String> {
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
        let start = Instant::now();
        let mut child = Command::new(fannet)
            .arg("listen")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--model")
            .arg(model)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fannet.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let setup_s = start.elapsed().as_secs_f64();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok((
                Server {
                    child,
                    _stdout: stdout,
                    addr,
                },
                setup_s,
            )),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("fannet listen did not become ready: {line:?}"))
            }
        }
    }

    /// The server's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time (utime + stime) of the server so far, in nanoseconds, read
    /// as the sum of its threads' schedstat run times: nanosecond
    /// resolution where `/proc/<pid>/stat` has 10 ms ticks. Every server
    /// thread (workers, acceptor, connection readers) lives through a
    /// measured window, so differences of this sum are exact.
    ///
    /// # Errors
    ///
    /// Returns a message when `/proc` cannot be read.
    pub fn cpu_ns(&self) -> Result<u64, String> {
        let dir = format!("/proc/{}/task", self.pid());
        let mut total = 0u64;
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let path = entry.map_err(|e| e.to_string())?.path().join("schedstat");
            // A thread may exit between listing and reading; it then
            // contributes nothing to either end of a window.
            if let Ok(text) = std::fs::read_to_string(&path) {
                total += text
                    .split_whitespace()
                    .next()
                    .and_then(|n| n.parse::<u64>().ok())
                    .ok_or_else(|| format!("bad {}: {text:?}", path.display()))?;
            }
        }
        Ok(total)
    }

    /// Peak resident set (`VmHWM`) of the server, MiB.
    ///
    /// # Errors
    ///
    /// Returns a message when `/proc` cannot be read.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Asks the server to drain (in-band `shutdown`) and reaps it.
    ///
    /// # Errors
    ///
    /// Returns a message when the server does not acknowledge or exit
    /// cleanly; the process is killed in that case.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = Control::connect(self.addr)
            .and_then(|mut c| c.request("{\"op\":\"shutdown\"}"))
            .map(|ack| ack.contains("\"ok\":true"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && acked == Ok(true) => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status} ({acked:?})")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not drain within 10 s".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of the `/proc/<pid>/status` file at `status`, MiB.
///
/// # Errors
///
/// Returns a message when the file cannot be read or lacks the field.
pub fn vm_hwm_mb(status: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status).map_err(|e| format!("{status}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status} has no VmHWM"))
}

/// CPU time (utime + stime) of this process, seconds, from
/// `/proc/self/stat` (includes threads that already exited).
///
/// # Errors
///
/// Returns a message when `/proc` cannot be read.
pub fn self_cpu_s() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("bad /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "bad /proc/self/stat".to_string())
    };
    // `rest` starts at field 3 (state), so field n is rest[n - 3].
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// The unit of `/proc/<pid>/stat` times: Linux fixes USER_HZ at 100 on
/// x86-64 and aarch64.
const USER_HZ: f64 = 100.0;

/// A request/response connection for control ops (`stats`, `shutdown`).
#[derive(Debug)]
pub struct Control {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Control {
    /// Connects to the server.
    ///
    /// # Errors
    ///
    /// Returns a message when the connection fails.
    pub fn connect(addr: SocketAddr) -> Result<Control, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Control {
            writer: stream,
            reader,
        })
    }

    /// Sends one line and reads its one-line reply.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or a closed connection.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the control connection".to_string()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// The engine's cumulative counters (`stats` op).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or an unexpected reply.
    pub fn stats(&mut self) -> Result<EngineCounters, String> {
        EngineCounters::from_line(&self.request("{\"op\":\"stats\"}")?)
    }
}

/// Creates (truncates) the server log of a run.
///
/// # Errors
///
/// Returns a message when the file cannot be created.
pub fn fresh_log(path: &Path) -> Result<(), String> {
    File::create(path)
        .map(drop)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))
}
