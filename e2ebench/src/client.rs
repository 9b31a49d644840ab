//! Drives the release `edf-serve` binary over its stdin/stdout line
//! protocol from one connection: a writer thread sends the request lines
//! (all at once, or each at its due time) while the calling thread reads
//! and timestamps the replies.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How to start one server: binary, journal to recover from, extra flags.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    pub binary: PathBuf,
    pub flags: Vec<String>,
    /// The preload journal; every spawn recovers from a fresh copy of it.
    pub preload: PathBuf,
    /// Where the copy the server appends to lives.
    pub journal: PathBuf,
}

/// A running server that has answered its first request.
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
    /// Spawn through journal recovery to the first reply, in seconds.
    pub setup_s: f64,
}

impl Server {
    /// Copies the preload journal, spawns the server on the copy and
    /// times spawn → recovery → the reply to a first `HEALTH`.  With
    /// `input`, the server reads that file instead of a pipe; the file
    /// must start with `HEALTH`.
    pub fn start(spec: &ServerSpec, input: Option<&Path>) -> io::Result<Server> {
        std::fs::copy(&spec.preload, &spec.journal)?;
        let stdin = match input {
            Some(path) => Stdio::from(File::open(path)?),
            None => Stdio::piped(),
        };
        let start = Instant::now();
        let mut child = Command::new(&spec.binary)
            .arg("--journal")
            .arg(&spec.journal)
            .args(&spec.flags)
            .stdin(stdin)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdin = child.stdin.take();
        let mut stdout =
            BufReader::with_capacity(1 << 16, child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdin: None,
            stdout: None,
            setup_s: 0.0,
        };
        if let Some(pipe) = stdin.as_mut() {
            pipe.write_all(b"HEALTH\n")?;
            pipe.flush()?;
        }
        let mut first = String::new();
        stdout.read_line(&mut first)?;
        server.setup_s = start.elapsed().as_secs_f64();
        if !first.starts_with("HEALTH ") {
            return Err(io::Error::other(format!(
                "server did not start: first reply {first:?}"
            )));
        }
        server.stdin = stdin;
        server.stdout = Some(stdout);
        Ok(server)
    }

    /// Peak resident memory of the server so far, in MiB; NaN once the
    /// process has exited.
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Reads `count` replies timed from `t0`, then the final `HEALTH`, the
    /// `BYE` and end of output, and reaps the server.  The peak memory is
    /// sampled along the way (every 256 replies and after `HEALTH`; the
    /// last sample can miss a server that has already exited).
    fn collect(
        &mut self,
        count: usize,
        t0: Instant,
        after_health: impl FnOnce(),
    ) -> io::Result<Replay> {
        let mut stdout = self.stdout.take().expect("started server");
        let mut replay = Replay {
            peak_rss_mb: f64::NAN,
            ..Replay::default()
        };
        let mut line = String::new();
        for index in 0..count {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                break;
            }
            replay.recv_us.push(t0.elapsed().as_secs_f64() * 1e6);
            replay.replies.push(line.trim_end().to_owned());
            if index % 256 == 255 {
                replay.peak_rss_mb = replay.peak_rss_mb.max(self.peak_rss_mb());
            }
        }
        line.clear();
        stdout.read_line(&mut line)?;
        replay.health = line.trim_end().to_owned();
        replay.peak_rss_mb = replay.peak_rss_mb.max(self.peak_rss_mb());
        after_health();
        // `BYE`, then end of output: anything else is an extra reply.
        let mut rest = String::new();
        while {
            line.clear();
            stdout.read_line(&mut line)? > 0
        } {
            rest.push_str(&line);
        }
        replay.extra = rest.trim() != "BYE" || !self.child.wait()?.success();
        Ok(replay)
    }

    /// Sends `lines` over the pipe, request `i` at `i / rate` seconds,
    /// then `HEALTH` and `QUIT`; reads every reply and reaps the server.
    pub fn open_loop(mut self, lines: &[String], rate: f64) -> io::Result<Replay> {
        let stdin = self.stdin.take().expect("server started on a pipe");
        let (sampled, may_quit) = mpsc::channel::<()>();
        let t0 = Instant::now();
        let mut replay = std::thread::scope(|scope| -> io::Result<Replay> {
            let writer = scope.spawn(move || send(stdin, lines, rate, t0, &may_quit));
            let mut replay = self.collect(lines.len(), t0, || drop(sampled))?;
            replay.late_us = writer.join().expect("writer thread panicked")?;
            Ok(replay)
        })?;
        replay.due_us = (0..lines.len()).map(|i| i as f64 / rate * 1e6).collect();
        Ok(replay)
    }
}

/// Backlogged replay: the whole stream is available at once (the server
/// reads it from a file), timed from the reply to the leading `HEALTH`.
pub fn backlogged(spec: &ServerSpec, lines: &[String]) -> io::Result<(f64, Replay)> {
    let input = spec.journal.with_extension("in");
    let mut file = BufWriter::new(File::create(&input)?);
    file.write_all(b"HEALTH\n")?;
    for line in lines {
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
    }
    file.write_all(b"HEALTH\nQUIT\n")?;
    file.flush()?;
    drop(file);
    let mut server = Server::start(spec, Some(&input))?;
    let t0 = Instant::now();
    let mut replay = server.collect(lines.len(), t0, || ())?;
    replay.due_us = vec![0.0; lines.len()];
    Ok((server.setup_s, replay))
}

impl Drop for Server {
    fn drop(&mut self) {
        // Normal runs have already reaped the child; this only stops a
        // server abandoned on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The writer side of [`Server::open_loop`]; returns how late each request
/// was written after its due time, in microseconds.
fn send(
    stdin: ChildStdin,
    lines: &[String],
    rate: f64,
    t0: Instant,
    may_quit: &mpsc::Receiver<()>,
) -> io::Result<Vec<f64>> {
    let mut out = BufWriter::with_capacity(1 << 16, stdin);
    let mut late = Vec::with_capacity(lines.len());
    for (index, line) in lines.iter().enumerate() {
        let due = Duration::from_secs_f64(index as f64 / rate);
        let mut now = t0.elapsed();
        if now < due {
            out.flush()?;
            std::thread::sleep(due - now);
            now = t0.elapsed();
        }
        late.push(now.saturating_sub(due).as_secs_f64() * 1e6);
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.write_all(b"HEALTH\n")?;
    out.flush()?;
    // Hold `QUIT` back until the reader has sampled the server's memory.
    let _ = may_quit.recv();
    out.write_all(b"QUIT\n")?;
    out.flush().map(|()| late)
}

/// Everything one replay observed.
#[derive(Debug, Default)]
pub struct Replay {
    /// Reply lines in order (fewer than requests if the server stopped).
    pub replies: Vec<String>,
    /// When each reply was read, in µs after the first request was due
    /// (backlogged: after the reply to the leading `HEALTH`).
    pub recv_us: Vec<f64>,
    /// When each request was due, in µs (all 0 for a backlogged replay).
    pub due_us: Vec<f64>,
    /// How late the writer sent each request, in µs (open loop only).
    pub late_us: Vec<f64>,
    /// The `HEALTH` reply after the last request.
    pub health: String,
    pub peak_rss_mb: f64,
    /// A reply beyond `HEALTH` and `BYE`, or an unclean exit.
    pub extra: bool,
}

impl Replay {
    /// Per-request latency from due time to reply, in µs.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.recv_us
            .iter()
            .zip(&self.due_us)
            .map(|(recv, due)| recv - due)
            .collect()
    }

    /// Seconds from the first request to the last reply.
    pub fn wall_s(&self) -> f64 {
        self.recv_us.last().copied().unwrap_or(0.0) / 1e6
    }
}

/// Closed loop: sends each request only after the previous reply arrived,
/// returning the round-trip time of each in µs, the replies, and whether
/// client and server shared one CPU.
///
/// They share one if the host lets this process set CPU affinities: each
/// hand-over is then a context switch on a running CPU.  On separate CPUs
/// every request and every reply wakes a halted vCPU, which on a shared VM
/// costs a few microseconds when the host is calm and far more when it is
/// busy, and the round trip would measure that.
pub fn closed_loop(server: Server, lines: &[String]) -> io::Result<(Vec<f64>, Vec<String>, bool)> {
    let mut server = server;
    let mut stdin = server.stdin.take().expect("started server");
    let mut stdout = server.stdout.take().expect("started server");
    let pinned = OneCpu::share(server.child.id()).ok();
    let mut rtts = Vec::with_capacity(lines.len());
    let mut replies = Vec::with_capacity(lines.len());
    let mut reply = String::new();
    for line in lines {
        let start = Instant::now();
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        reply.clear();
        if stdout.read_line(&mut reply)? == 0 {
            break;
        }
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
        replies.push(reply.trim_end().to_owned());
    }
    let shared = pinned.is_some();
    drop(pinned);
    stdin.write_all(b"QUIT\n")?;
    drop(stdin);
    let mut rest = String::new();
    while stdout.read_line(&mut rest)? > 0 {}
    server.child.wait()?;
    Ok((rtts, replies, shared))
}

// The C library's CPU affinity calls; a CPU set is 1024 bits.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

type CpuSet = [u64; 16];

/// This thread and one other process confined to one CPU; dropping it
/// gives this thread its CPUs back.
struct OneCpu(CpuSet);

impl OneCpu {
    /// Confines this thread and process `pid` to the lowest CPU this
    /// thread may use.
    fn share(pid: u32) -> io::Result<OneCpu> {
        let mut saved: CpuSet = [0; 16];
        // SAFETY: `saved` is a writable buffer of the size passed.
        if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), saved.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let word = saved
            .iter()
            .position(|&bits| bits != 0)
            .ok_or_else(|| io::Error::other("empty CPU set"))?;
        let mut one: CpuSet = [0; 16];
        one[word] = saved[word] & saved[word].wrapping_neg();
        set_affinity(pid as i32, &one)?;
        let guard = OneCpu(saved);
        set_affinity(0, &one)?;
        Ok(guard)
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        let _ = set_affinity(0, &self.0);
    }
}

fn set_affinity(pid: i32, set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(pid, size_of::<CpuSet>(), set.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// `VmHWM` (peak resident memory) from a `/proc/<pid>/status` file, in
/// MiB, or NaN if it cannot be read.
pub fn peak_rss_mb(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The `us=` field of a reply, if it has one.
pub fn reply_us(reply: &str) -> Option<f64> {
    reply
        .rsplit_once(" us=")
        .and_then(|(_, us)| us.parse::<f64>().ok())
}

/// A reply with its timing field removed: what must repeat exactly.
pub fn deterministic_part(reply: &str) -> &str {
    reply.rsplit_once(" us=").map_or(reply, |(head, _)| head)
}
