//! A `qsnc serve` child process and the open-loop load one tagged
//! connection carries to it, with every Ok reply checked bit for bit.

use crate::layers::{counter, ratio, EngineTimes};
use crate::model;
use crate::open_loop::{self, Arrival, Outcome, Rung, Sample, REPLY_GRACE};
use crate::report::Metrics;
use crate::trace::{self, Tracer};
use qsnc_serve::protocol::{parse_frame, read_reply, write_request_tagged};
use qsnc_serve::Status;
use qsnc_telemetry::Snapshot;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const ADMIN_CURSOR: &str = "/snapshot?cursor=perfbench";
/// Untimed load before each pass of the ladder, so the server's scratch
/// arenas, the connection and both ends' threads are warm.
const WARMUP: (u32, Duration) = (2000, Duration::from_millis(200));
/// Longest the sender waits for a reply while the connection's in-flight
/// budget is used up; each reply wakes it sooner.
const BUDGET_WAIT: Duration = Duration::from_millis(1);

/// A `qsnc serve` child, killed and reaped on drop.
pub struct ServerChild {
    child: Child,
    addr: SocketAddr,
    pub admin: SocketAddr,
}

impl ServerChild {
    fn spawn(bin: &Path, artifact: &Path) -> Result<ServerChild, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--artifact"])
            .arg(artifact)
            .args(["--addr", "127.0.0.1:0", "--admin", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // Default ServeConfig: no inherited serve or telemetry overrides.
        for (key, _) in std::env::vars() {
            if key.starts_with("QSNC_SERVE_") || key == "QSNC_TELEMETRY" {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerChild {
            child,
            addr: unspecified(),
            admin: unspecified(),
        };
        let (mut addr, mut admin) = (None, None);
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("server stdout: {e}"))?;
            if let Some(a) = line.strip_prefix("listening on ") {
                addr = a.trim().parse().ok();
            } else if let Some(a) = line.strip_prefix("admin on ") {
                admin = a.trim().parse().ok();
            }
            if addr.is_some() && admin.is_some() {
                break;
            }
        }
        server.addr = addr.ok_or("server exited before reporting its address")?;
        server.admin = admin.ok_or("server reported no admin address")?;
        Ok(server)
    }

    /// `VmHWM` of the child: its peak resident set, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn unspecified() -> SocketAddr {
    SocketAddr::from(([0, 0, 0, 0], 0))
}

/// One admin GET: body and wall time.
fn admin_get(admin: SocketAddr, path: &str) -> Result<(String, Duration), String> {
    let t0 = Instant::now();
    let mut s = TcpStream::connect(admin).map_err(|e| format!("admin connect: {e}"))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("admin write: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("admin read: {e}"))?;
    let elapsed = t0.elapsed();
    let text = String::from_utf8(raw).map_err(|_| "admin reply is not UTF-8")?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("admin reply has no body")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "admin {path}: {}",
            head.lines().next().unwrap_or("")
        ));
    }
    Ok((body.to_string(), elapsed))
}

fn scrape_delta(admin: SocketAddr) -> Result<Snapshot, String> {
    let (body, _) = admin_get(admin, ADMIN_CURSOR)?;
    Snapshot::from_json(&body)
}

/// A served artifact: the server child and the benchmark's one data
/// connection to it.
pub struct Served {
    pub server: ServerChild,
    conn: TcpStream,
    /// Tags are unique over the run, so a late reply can never be taken
    /// for another request's.
    next_tag: u32,
    /// Requests the server accepts in flight on one connection (default
    /// `ServeConfig`). The sender never exceeds it, as a client of the
    /// protocol should, so the server's queue never sheds this load.
    budget: usize,
}

impl Served {
    /// Spawns `qsnc serve` on `artifact`, connects, and sends one request
    /// with `first_input`. Returns the server and that reply's logits.
    pub fn start(
        qsnc: &Path,
        artifact: &Path,
        first_input: &[f32],
    ) -> Result<(Served, Vec<f32>), String> {
        let server = ServerChild::spawn(qsnc, artifact)?;
        let mut conn = TcpStream::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        write_request_tagged(&mut conn, 0, first_input)
            .map_err(|e| format!("first request: {e}"))?;
        let reply = read_reply(&mut conn).map_err(|e| format!("first reply: {e}"))?;
        if reply.status != Status::Ok {
            return Err(format!(
                "first reply was {:?}: {}",
                reply.status, reply.message
            ));
        }
        let served = Served {
            server,
            conn,
            next_tag: 1,
            budget: qsnc_serve::ServeConfig::default().max_inflight_per_conn,
        };
        Ok((served, reply.logits))
    }

    /// Untimed load, then a scrape, so the admin cursor's next delta
    /// starts after it.
    pub fn warm_up(
        &mut self,
        seed: u64,
        inputs: &[Vec<f32>],
        expected: &[Vec<f32>],
        epoch: Instant,
    ) -> Result<(), String> {
        let warmup = open_loop::schedule(seed ^ 0x5EED, WARMUP.0, WARMUP.1, inputs.len());
        self.rung(&warmup, inputs, expected, &mut Tracer::new(false, epoch));
        scrape_delta(self.server.admin).map(drop)
    }

    /// A saturated burst of `count` requests (see [`open_loop::burst`]),
    /// then a scrape, so the admin cursor's next delta starts after it.
    pub fn burst(
        &mut self,
        seed: u64,
        count: usize,
        inputs: &[Vec<f32>],
        expected: &[Vec<f32>],
        tracer: &mut Tracer,
    ) -> Result<Vec<Sample>, String> {
        let arrivals = open_loop::burst(seed, count, inputs.len());
        let (samples, _, _) = self.rung(&arrivals, inputs, expected, tracer);
        scrape_delta(self.server.admin)?;
        Ok(samples)
    }

    /// Sends `arrivals` on schedule from this thread while one receiver
    /// thread reads the replies and checks them against `expected`. A
    /// request due while the connection's in-flight budget is used up waits
    /// for a reply, and is still timed from its due time. Returns each
    /// request's result, how late each was sent, and the tag of the first
    /// request.
    pub fn rung(
        &mut self,
        arrivals: &[Arrival],
        inputs: &[Vec<f32>],
        expected: &[Vec<f32>],
        tracer: &mut Tracer,
    ) -> (Vec<Sample>, Vec<f64>, u32) {
        let n = arrivals.len();
        let tag_base = self.next_tag;
        self.next_tag += n as u32;
        let start = Instant::now() + Duration::from_millis(1);
        let at = |ns: u64| start + Duration::from_nanos(ns);
        let reader = self.conn.try_clone().expect("clone connection");
        let mut rx_tracer = tracer.fork();
        let (mut late_ms, mut buf) = (Vec::with_capacity(n), Vec::new());
        let answered = Answered {
            count: AtomicUsize::new(0),
            receiving: AtomicBool::new(true),
            sender: std::thread::current(),
        };
        let (results, rx_tracer) = std::thread::scope(|s| {
            let answered = &answered;
            let rx = s.spawn(move || {
                let results = receive(
                    reader,
                    arrivals,
                    expected,
                    tag_base,
                    start,
                    answered,
                    &mut rx_tracer,
                );
                answered.receiving.store(false, Ordering::Release);
                answered.sender.unpark();
                (results, rx_tracer)
            });
            let mut w = &self.conn;
            let mut i = 0;
            'send: while i < n {
                let due = at(arrivals[i].due_ns);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let room = loop {
                    let room = answered.count.load(Ordering::Acquire) + self.budget;
                    if i < room {
                        break room;
                    }
                    if !answered.receiving.load(Ordering::Acquire) {
                        break 'send; // the receiver marks the unsent requests missing
                    }
                    std::thread::park_timeout(BUDGET_WAIT);
                };
                let now_ns = Instant::now().saturating_duration_since(start).as_nanos() as u64;
                let mut j = i;
                buf.clear();
                while j < n && j < room && (j == i || arrivals[j].due_ns <= now_ns) {
                    let a = arrivals[j];
                    write_request_tagged(&mut buf, tag_base + j as u32, &inputs[a.input as usize])
                        .expect("encoding into a Vec cannot fail");
                    j += 1;
                }
                if w.write_all(&buf).is_err() {
                    break; // the receiver marks the unsent requests missing
                }
                let sent = Instant::now();
                for (k, a) in arrivals[i..j].iter().enumerate() {
                    let tag = u64::from(tag_base) + (i + k) as u64;
                    late_ms.push(sent.saturating_duration_since(at(a.due_ns)).as_secs_f64() * 1e3);
                    tracer.record("gen.send", trace::next_id(), tag, tag, at(a.due_ns), sent);
                }
                i = j;
            }
            rx.join().expect("receiver thread panicked")
        });
        tracer.absorb(rx_tracer);
        let samples = arrivals
            .iter()
            .zip(results)
            .map(|(a, r)| {
                let (done_ns, outcome) = r.unwrap_or((0, Outcome::Missing));
                Sample {
                    due_ns: a.due_ns,
                    done_ns,
                    outcome,
                }
            })
            .collect();
        (samples, late_ms, tag_base)
    }
}

/// Replies received so far in a rung, shared by its receiver and sender.
/// The receiver's `Release` stores pair with the sender's `Acquire` loads;
/// the atomics publish nothing but themselves.
struct Answered {
    count: AtomicUsize,
    /// False once the receiver stopped.
    receiving: AtomicBool,
    /// The sender, woken by each reply while it waits for budget.
    sender: std::thread::Thread,
}

/// Reads replies until every request is answered or the grace period after
/// the last due time passes. Returns `(done_ns, outcome)` per request.
fn receive(
    mut stream: TcpStream,
    arrivals: &[Arrival],
    expected: &[Vec<f32>],
    tag_base: u32,
    start: Instant,
    answered: &Answered,
    tracer: &mut Tracer,
) -> Vec<Option<(u64, Outcome)>> {
    let n = arrivals.len();
    let mut results: Vec<Option<(u64, Outcome)>> = vec![None; n];
    let deadline =
        start + Duration::from_nanos(arrivals.last().map_or(0, |a| a.due_ns)) + REPLY_GRACE;
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set read timeout");
    let (mut buf, mut chunk) = (Vec::new(), vec![0u8; 1 << 16]);
    let mut got = 0;
    'read: while got < n && Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        }
        let now = Instant::now();
        let done_ns = now.saturating_duration_since(start).as_nanos() as u64;
        let mut off = 0;
        while let Ok(Some(view)) = parse_frame(&buf[off..]) {
            let Ok(reply) = read_reply(&mut &buf[off..off + view.consumed]) else {
                break 'read;
            };
            off += view.consumed;
            // An untagged reply is a connection-level refusal: nothing
            // more will be answered on this connection.
            let Some(tag) = reply.tag else { break 'read };
            let idx = tag.wrapping_sub(tag_base) as usize;
            if idx >= n || results[idx].is_some() {
                continue;
            }
            let a = arrivals[idx];
            let outcome = match reply.status {
                Status::Ok => {
                    let want = &expected[a.input as usize];
                    let good = tracer.time("bench.check", u64::from(tag), u64::from(tag), || {
                        model::same_bits(&reply.logits, want)
                            && reply.argmax as usize == model::argmax(want)
                    });
                    if good {
                        Outcome::Ok
                    } else {
                        Outcome::Wrong
                    }
                }
                Status::Busy => Outcome::Busy,
                _ => Outcome::Error,
            };
            tracer.record(
                "request",
                u64::from(tag),
                0,
                u64::from(tag),
                start + Duration::from_nanos(a.due_ns),
                now,
            );
            results[idx] = Some((done_ns, outcome));
            got += 1;
            answered.count.fetch_add(1, Ordering::Release);
            answered.sender.unpark();
        }
        buf.drain(..off);
    }
    results
}

/// The server's own view of a ladder: an admin snapshot delta after each
/// rung of each pass, and what the scrapes cost.
#[derive(Default)]
pub struct ServerView {
    snaps: Vec<(usize, u32, Snapshot)>,
    scrape_ms: Vec<f64>,
    scrape_bytes: Vec<f64>,
}

/// Value of a sketch quantile in a snapshot (0 when absent).
fn sketch_q(snap: &Snapshot, name: &str, q: f64) -> f64 {
    snap.quantile_sketch(name).map_or(0.0, |s| s.quantile(q))
}

fn batch_mean(s: &Snapshot) -> f64 {
    s.histogram("serve.batch.size")
        .map_or(0.0, |h| ratio(h.sum, h.count as f64))
}

impl ServerView {
    /// Takes the delta since the last scrape for rung `rps` of pass `pass`,
    /// and times one `GET /metrics`.
    pub fn scrape(&mut self, admin: SocketAddr, pass: usize, rps: u32) -> Result<(), String> {
        let snap = scrape_delta(admin)?;
        let (body, t) = admin_get(admin, "/metrics")?;
        self.snaps.push((pass, rps, snap));
        self.scrape_ms.push(t.as_secs_f64() * 1e3);
        self.scrape_bytes.push(body.len() as f64);
        Ok(())
    }

    /// The delta of the pass a rung's latencies come from (empty when the
    /// rung never ran).
    fn at(&self, rungs: &[Rung], rps: u32) -> Snapshot {
        open_loop::rung_at(rungs, rps)
            .and_then(|r| {
                self.snaps
                    .iter()
                    .find(|(p, q, _)| *p == r.best_pass && *q == rps)
            })
            .map(|(_, _, s)| s.clone())
            .unwrap_or_default()
    }

    pub fn batch_mean_at(&self, rungs: &[Rung], rps: u32) -> f64 {
        batch_mean(&self.at(rungs, rps))
    }

    /// Every delta summed.
    pub fn total(&self) -> Snapshot {
        self.snaps
            .iter()
            .map(|(_, _, s)| s.clone())
            .reduce(|a, b| merge(&a, &b))
            .unwrap_or_default()
    }

    /// The `serve.*` and engine stage metrics, each read at the rung whose
    /// end-to-end metric it should move, and the scrape costs.
    pub fn put_layers(&self, rungs: &[Rung], layers: &mut Metrics) {
        let top_rps = open_loop::slo_rung(rungs);
        let (r500, r2000, top) = (
            self.at(rungs, 500),
            self.at(rungs, 2000),
            self.at(rungs, top_rps),
        );
        let top_sent = open_loop::rung_at(rungs, top_rps).map_or(0, |r| r.sent) as f64;
        layers.put(
            "serve.stage.queue.p50_us",
            sketch_q(&r500, "serve.stage.queue.us", 0.5),
        );
        for stage in ["infer", "decode", "encode"] {
            layers.put(
                &format!("serve.stage.{stage}.p50_us"),
                sketch_q(&r2000, &format!("serve.stage.{stage}.us"), 0.5),
            );
        }
        layers.put(
            "serve.loop.dispatch.p50_us",
            sketch_q(&r2000, "serve.loop.dispatch.us", 0.5),
        );
        layers.put(
            "serve.loop.wakeups_per_req",
            ratio(
                counter(&r2000, "serve.loop.wakeups"),
                counter(&r2000, "serve.requests"),
            ),
        );
        layers.put("serve.batch.mean", batch_mean(&top));
        layers.put(
            "serve.rejected_frac",
            ratio(
                counter(&top, "serve.rejected") + counter(&top, "serve.conn.rejected"),
                top_sent,
            ),
        );
        EngineTimes::put_p50s(&top, layers);
        layers.put("telemetry.scrape_ms", crate::stats::median(&self.scrape_ms));
        layers.put(
            "telemetry.scrape_bytes",
            crate::stats::median(&self.scrape_bytes),
        );
    }

    /// Engine stage time per batch over the rungs up to
    /// [`open_loop::slo_rung`].
    pub fn engine_times(&self, rungs: &[Rung]) -> Option<EngineTimes> {
        let top_rps = open_loop::slo_rung(rungs);
        self.snaps
            .iter()
            .filter(|(_, r, _)| *r <= top_rps)
            .map(|(_, _, s)| s.clone())
            .reduce(|a, b| merge(&a, &b))
            .map(|s| EngineTimes::from_snapshot(&s, counter(&s, "serve.batches")))
    }

    /// The server's own view of each rung and pass.
    pub fn print(&self) {
        println!("== server per rung and pass (admin snapshot deltas)");
        println!(
            "  {:>4} {:>6} {:>8} {:>10} {:>9} {:>9} {:>10} {:>10} {:>11}",
            "pass",
            "rps",
            "requests",
            "batch_mean",
            "rejected",
            "conn_rej",
            "queue_p50",
            "infer_p50",
            "dispatch_p50"
        );
        for (pass, rps, s) in &self.snaps {
            let batch = s
                .histogram("serve.batch.size")
                .map_or(0.0, |h| ratio(h.sum, h.count as f64));
            println!(
                "  {:>4} {:>6} {:>8} {:>10.2} {:>9} {:>9} {:>10.1} {:>10.1} {:>11.1}",
                pass + 1,
                rps,
                counter(s, "serve.requests"),
                batch,
                counter(s, "serve.rejected"),
                counter(s, "serve.conn.rejected"),
                sketch_q(s, "serve.stage.queue.us", 0.5),
                sketch_q(s, "serve.stage.infer.us", 0.5),
                sketch_q(s, "serve.loop.dispatch.us", 0.5),
            );
        }
    }
}

/// Sum of two delta snapshots' counters and sketch sums, enough for the
/// per-batch stage totals of the model-vs-measured table.
fn merge(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut out = a.clone();
    for (name, v) in &b.counters {
        match out.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, w)) => *w += v,
            None => out.counters.push((name.clone(), *v)),
        }
    }
    for q in &b.quantiles {
        match out.quantiles.iter_mut().find(|p| p.name == q.name) {
            Some(p) => {
                p.sum += q.sum;
                p.count += q.count;
            }
            None => out.quantiles.push(q.clone()),
        }
    }
    out
}
