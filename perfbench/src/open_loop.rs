//! Open-loop load: seeded Poisson arrivals stepped through a fixed ladder
//! of rates, with latency timed from each request's *due* time.
//!
//! Requests are sent on schedule whether or not earlier ones have been
//! answered, as independent users would send them, so a stall shows as
//! latency on every request due during it. A request that fails counts as
//! missing every latency limit.

use crate::report::{Metrics, Tally};
use std::time::Duration;

/// Offered rates, requests per second.
pub const RUNGS: [u32; 9] = [500, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000];
/// Passes up the ladder: each rung's samples come from this many moments
/// of the run, so a slow spell of the host spoils one pass, not the rung.
pub const PASSES: usize = 9;
/// Passes whose highest rung meeting the service level `max_rps_slo`
/// averages: the best ones.
const SLO_PASSES_KEPT: usize = 3;
/// The rungs the end-to-end latency metrics are read at.
pub const REFERENCE_RUNGS: [u32; 2] = [500, 2000];
/// Share of the ladder's time per rung: the two reference rungs run longer
/// so their latency figures rest on more samples.
const RUNG_WEIGHTS: [f64; 9] = [5.0, 1.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// A rung meets the service level when p99 stays within this limit ...
pub const SLO_P99_MS: f64 = 10.0;
/// ... at most this share of requests fails ...
pub const SLO_MAX_FAILED: f64 = 0.01;
/// ... and the median latency of the last tenth of the rung exceeds that
/// of the first tenth by no more than this (no growing backlog).
pub const BACKLOG_GROWTH_MS: f64 = 5.0;
/// Fewest requests in a latency window, and the most windows in a rung.
pub const WINDOW_MIN_REQUESTS: usize = 1000;
const MAX_WINDOWS: usize = 5;
/// How long after a rung's last due time replies are still awaited; a
/// request unanswered by then is missing.
pub const REPLY_GRACE: Duration = Duration::from_secs(5);
/// Completions per window of a saturated burst (see [`saturated_rates`]).
const SATURATED_WINDOW: usize = 250;

/// One request: when it is due, relative to the rung start, and which
/// input of the pool it carries.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due_ns: u64,
    pub input: u32,
}

/// SplitMix64: the benchmark's own seeded generator for arrivals.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals at `rps` over `duration`, inputs drawn uniformly from
/// a pool of `inputs`.
pub fn schedule(seed: u64, rps: u32, duration: Duration, inputs: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ (u64::from(rps) << 32));
    let end = duration.as_nanos() as f64;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / f64::from(rps) * 1e9;
        if t >= end {
            return out;
        }
        let input = (rng.next_u64() % inputs as u64) as u32;
        out.push(Arrival {
            due_ns: t as u64,
            input,
        });
    }
}

/// `count` requests all due at once, inputs drawn uniformly from a pool of
/// `inputs`: the sender then keeps the connection's whole in-flight budget
/// busy until the last is answered.
pub fn burst(seed: u64, count: usize, inputs: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0xB0257);
    (0..count)
        .map(|_| Arrival {
            due_ns: 0,
            input: (rng.next_u64() % inputs as u64) as u32,
        })
        .collect()
}

/// Ok replies per second of a saturated burst, one value per window of
/// [`SATURATED_WINDOW`] consecutive completions, so a host stall moves one
/// window rather than the whole burst.
pub fn saturated_rates(samples: &[Sample]) -> Vec<f64> {
    let mut done: Vec<u64> = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .map(|s| s.done_ns)
        .collect();
    done.sort_unstable();
    done.windows(SATURATED_WINDOW + 1)
        .step_by(SATURATED_WINDOW)
        .map(|w| SATURATED_WINDOW as f64 / ((w[SATURATED_WINDOW] - w[0]).max(1) as f64 / 1e9))
        .collect()
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Backpressure: the server answered Busy. The sender stays within the
    /// connection's in-flight budget, so a working server never does.
    Busy,
    /// Any other non-Ok reply.
    Error,
    /// An Ok reply whose output failed the check.
    Wrong,
    /// No reply before the rung's deadline.
    Missing,
}

/// One request's result, times relative to the rung start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
}

/// One rung's result.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    pub rps: u32,
    pub sent: u64,
    pub ok: u64,
    pub busy: u64,
    pub wrong: u64,
    pub failed: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// How late the generator sent, p99 over requests it had to wait for.
    pub late_p99_ms: f64,
    /// Ok replies per second of rung wall time.
    pub goodput_rps: f64,
    pub backlog_growth: bool,
    pub pass: bool,
    /// Passes that ran this rung, and the one its latencies come from.
    pub passes: usize,
    pub best_pass: usize,
    /// Each pass that ran the rung, in the order they ran.
    pub by_pass: Vec<PassResult>,
}

/// One pass of one rung.
#[derive(Debug, Clone, Copy)]
pub struct PassResult {
    pub pass: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Whether this pass met the service level.
    pub met: bool,
}

impl Rung {
    /// Summarizes a rung. A failed request's latency is taken as the time
    /// from its due time to `deadline_ns`, when the rung stopped waiting,
    /// so it ranks above every served request.
    ///
    /// p50 and p99 are taken per window of consecutive requests, each with
    /// at least [`WINDOW_MIN_REQUESTS`] so its p99 has ten samples beyond
    /// it, and the median over the windows is reported: one host stall then
    /// moves one window, not the rung.
    pub fn summarize(rps: u32, samples: &[Sample], late_ms: &[f64], deadline_ns: u64) -> Rung {
        let latency = |s: &Sample| {
            let end = if s.outcome == Outcome::Ok {
                s.done_ns
            } else {
                deadline_ns.max(s.done_ns)
            };
            end.saturating_sub(s.due_ns) as f64 / 1e6
        };
        let count = |o: Outcome| samples.iter().filter(|s| s.outcome == o).count() as u64;
        let ok = count(Outcome::Ok);
        let mut by_due: Vec<&Sample> = samples.iter().collect();
        by_due.sort_by_key(|s| s.due_ns);
        let windows = (by_due.len() / WINDOW_MIN_REQUESTS).clamp(1, MAX_WINDOWS);
        let per_window = by_due.len().div_ceil(windows).max(1);
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for w in by_due.chunks(per_window) {
            let sorted = crate::stats::sorted(w.iter().map(|s| latency(s)).collect());
            p50s.push(crate::stats::quantile(&sorted, 0.50));
            p99s.push(crate::stats::quantile(&sorted, 0.99));
        }
        let tenth = (by_due.len() / 10).max(1);
        let median_of = |part: &[&Sample]| {
            crate::stats::median(&part.iter().map(|s| latency(s)).collect::<Vec<_>>())
        };
        let backlog_growth = by_due.len() >= 20
            && median_of(&by_due[by_due.len() - tenth..]) - median_of(&by_due[..tenth])
                > BACKLOG_GROWTH_MS;
        let span_ns = samples
            .iter()
            .map(|s| s.done_ns)
            .max()
            .unwrap_or(0)
            .saturating_sub(samples.iter().map(|s| s.due_ns).min().unwrap_or(0));
        let sent = samples.len() as u64;
        let failed = sent - ok;
        let p99_ms = crate::stats::median(&p99s);
        Rung {
            rps,
            sent,
            ok,
            busy: count(Outcome::Busy),
            wrong: count(Outcome::Wrong),
            failed,
            p50_ms: crate::stats::median(&p50s),
            p99_ms,
            late_p99_ms: crate::stats::quantile(&crate::stats::sorted(late_ms.to_vec()), 0.99),
            goodput_rps: ok as f64 / (span_ns.max(1) as f64 / 1e9),
            backlog_growth,
            pass: sent > 0
                && p99_ms <= SLO_P99_MS
                && failed as f64 <= SLO_MAX_FAILED * sent as f64
                && !backlog_growth,
            passes: 1,
            best_pass: 0,
            by_pass: Vec::new(),
        }
    }
}

/// The ladder, climbed in [`PASSES`] passes spread over a run. Each pass
/// climbs with a `1 / PASSES` share of every rung's time and stops after
/// two consecutive rungs that miss the service level, but never before the
/// reference rungs have run. Workloads call [`Ladder::pass`] once per pass,
/// so they can interleave their other measurements between passes; a
/// rung's result is summarized over its passes (see [`best_of`]).
pub struct Ladder {
    /// Rung time per unit of weight in one pass, in seconds.
    unit_s: f64,
    seed: u64,
    inputs: usize,
    by_rung: Vec<Vec<Rung>>,
}

impl Ladder {
    /// A ladder whose passes together take `budget`, drawing inputs from a
    /// pool of `inputs`.
    pub fn new(budget: Duration, seed: u64, inputs: usize) -> Ladder {
        Ladder {
            unit_s: budget.as_secs_f64() / PASSES as f64 / RUNG_WEIGHTS.iter().sum::<f64>(),
            seed,
            inputs,
            by_rung: vec![Vec::new(); RUNGS.len()],
        }
    }

    /// Climbs the ladder once. `run_rung(rps, arrivals)` executes one rung.
    pub fn pass(&mut self, pass: usize, mut run_rung: impl FnMut(u32, &[Arrival]) -> Rung) {
        let mut misses = 0;
        for (k, (&rps, &weight)) in RUNGS.iter().zip(&RUNG_WEIGHTS).enumerate() {
            let duration = Duration::from_secs_f64(self.unit_s * weight);
            let arrivals = schedule(
                self.seed.wrapping_add(pass as u64),
                rps,
                duration,
                self.inputs,
            );
            let rung = Rung {
                best_pass: pass,
                ..run_rung(rps, &arrivals)
            };
            misses = if rung.pass { 0 } else { misses + 1 };
            self.by_rung[k].push(rung);
            if misses >= 2 && rps >= REFERENCE_RUNGS[1] {
                break;
            }
        }
    }

    /// Each rung that ran, summarized over its passes.
    pub fn finish(self) -> Vec<Rung> {
        self.by_rung
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(best_of)
            .collect()
    }
}

/// One rung over its passes. Counts are summed and the p50 is the lowest
/// pass's. p99, lateness, goodput and the verdict are the best pass's: the
/// one that met the service level with the lowest p99, or the lowest p99
/// when none did. Host stalls only ever add latency, and on a shared host
/// spells of several minutes stall this machine often enough to raise the
/// p50 of the passes they cover by a third, so each is taken where the
/// stalls did the least harm.
fn best_of(passes: Vec<Rung>) -> Rung {
    let rank = |r: &Rung| (!r.pass, r.p99_ms);
    let best = passes
        .iter()
        .min_by(|a, b| rank(a).partial_cmp(&rank(b)).expect("latencies are finite"))
        .expect("a rung that ran has a pass");
    let sum = |f: fn(&Rung) -> u64| passes.iter().map(f).sum();
    let p50_ms = passes
        .iter()
        .map(|r| r.p50_ms)
        .fold(f64::INFINITY, f64::min);
    Rung {
        p50_ms,
        sent: sum(|r| r.sent),
        ok: sum(|r| r.ok),
        busy: sum(|r| r.busy),
        wrong: sum(|r| r.wrong),
        failed: sum(|r| r.failed),
        passes: passes.len(),
        by_pass: passes
            .iter()
            .map(|r| PassResult {
                pass: r.best_pass,
                p50_ms: r.p50_ms,
                p99_ms: r.p99_ms,
                met: r.pass,
            })
            .collect(),
        ..best.clone()
    }
}

/// The highest rung that met the service level. In each pass it is the
/// highest rung that met the level there (0 when none did); over passes,
/// the mean of the best [`SLO_PASSES_KEPT`]. Host stalls only ever lower a
/// pass's result, and in a stall-heavy spell of the shared host they lower
/// most passes; near capacity whether one short rung meets the level is
/// luck, which the mean of three damps. The mean also moves by less than a
/// whole rung when the capacity does.
pub fn max_rps_slo(rungs: &[Rung]) -> f64 {
    let per_pass: Vec<f64> = (0..PASSES)
        .map(|p| {
            rungs
                .iter()
                .filter(|r| r.by_pass.iter().any(|v| v.pass == p && v.met))
                .map(|r| f64::from(r.rps))
                .fold(0.0, f64::max)
        })
        .collect();
    let kept = &crate::stats::sorted(per_pass)[PASSES - SLO_PASSES_KEPT..];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The ladder's share of a run's tally: every request sent is attempted,
/// and every one that was not served correctly (a Busy, error, missing or
/// wrong reply) failed, at every rung.
pub fn ladder_tally(rungs: &[Rung]) -> Tally {
    Tally {
        attempted: rungs.iter().map(|r| r.sent).sum(),
        failed: rungs.iter().map(|r| r.failed).sum(),
        correct: rungs.iter().all(|r| r.wrong == 0),
    }
}

/// The rung `max_rps_slo` falls on: the highest rung at or below it, or
/// the lowest rung when it is below them all. The server's view at
/// capacity is read there.
pub fn slo_rung(rungs: &[Rung]) -> u32 {
    let max = max_rps_slo(rungs);
    RUNGS
        .iter()
        .rev()
        .find(|&&r| f64::from(r) <= max)
        .copied()
        .unwrap_or(RUNGS[0])
}

pub fn rung_at(rungs: &[Rung], rps: u32) -> Option<&Rung> {
    rungs.iter().find(|r| r.rps == rps)
}

/// The ladder's end-to-end metrics: median latency at the reference rungs
/// and the highest rung meeting the service level.
pub fn ladder_metrics(rungs: &[Rung]) -> Metrics {
    let mut e2e = Metrics::default();
    for rps in REFERENCE_RUNGS {
        let r = rung_at(rungs, rps).expect("the ladder always runs its reference rungs");
        e2e.put(&format!("p50_ms.r{rps}"), r.p50_ms);
    }
    e2e.put("max_rps_slo", max_rps_slo(rungs));
    e2e
}

/// The ladder's tail metrics, reported per layer: p99 latency at the
/// reference rungs and how late the generator sent there (the worse of the
/// two). On a shared host the p99 is decided by host stalls, so it cannot
/// carry an end-to-end bound (see `NOTES.md`).
pub fn tail_metrics(rungs: &[Rung], layers: &mut Metrics) {
    let mut late: f64 = 0.0;
    for rps in REFERENCE_RUNGS {
        let r = rung_at(rungs, rps).expect("the ladder always runs its reference rungs");
        layers.put(&format!("p99_ms.r{rps}"), r.p99_ms);
        late = late.max(r.late_p99_ms);
    }
    layers.put("bench.gen.late_p99_ms", late);
}

/// Prints one row per rung: counts sent, succeeded and failed over all
/// passes, the lowest pass's p50, the best pass's p99 and verdict, and how
/// many passes met the service level.
pub fn print_rungs(title: &str, rungs: &[Rung]) {
    println!("== {title}");
    println!(
        "  {:>6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>8} {:>8} {:>9} {:>9} {:>9} {:>8} pass",
        "rps",
        "sent",
        "ok",
        "failed",
        "busy",
        "wrong",
        "p50_ms",
        "p99_ms",
        "late_p99",
        "goodput",
        "best/ran",
        "met/ran"
    );
    for r in rungs {
        println!(
            "  {:>6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>8.3} {:>8.3} {:>9.3} {:>9.0} {:>9} {:>8} {}{}",
            r.rps,
            r.sent,
            r.ok,
            r.failed,
            r.busy,
            r.wrong,
            r.p50_ms,
            r.p99_ms,
            r.late_p99_ms,
            r.goodput_rps,
            format!("{}/{}", r.best_pass + 1, r.passes),
            format!(
                "{}/{}",
                r.by_pass.iter().filter(|v| v.met).count(),
                r.passes
            ),
            if r.pass { "yes" } else { "no" },
            if r.backlog_growth {
                " (backlog grows)"
            } else {
                ""
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_near_its_rate() {
        let a = schedule(7, 1000, Duration::from_secs(2), 10);
        let b = schedule(7, 1000, Duration::from_secs(2), 10);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due_ns == y.due_ns && x.input == y.input));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }

    fn rung_of(rps: u32, outcomes: &[Outcome]) -> Rung {
        let samples: Vec<Sample> = outcomes
            .iter()
            .enumerate()
            .map(|(i, &outcome)| Sample {
                due_ns: i as u64 * 1_000_000,
                done_ns: i as u64 * 1_000_000 + 500_000,
                outcome,
            })
            .collect();
        Rung::summarize(rps, &samples, &[], 2_000_000_000)
    }

    #[test]
    fn every_unserved_request_fails_at_every_rung() {
        let errors = rung_of(500, &[Outcome::Error; 50]);
        let tally = ladder_tally(&[errors, rung_of(1000, &[Outcome::Missing; 50])]);
        assert_eq!((tally.attempted, tally.failed), (100, 100));
        assert!(tally.correct);

        // Shed load fails too, above a rung that met the service level.
        let mut probe = vec![Outcome::Busy; 30];
        probe.extend([Outcome::Error; 5]);
        probe.extend([Outcome::Ok; 65]);
        let ok = rung_of(500, &[Outcome::Ok; 100]);
        let tally = ladder_tally(&[ok, rung_of(1000, &probe)]);
        assert_eq!((tally.attempted, tally.failed), (200, 35));
        let wrong = rung_of(500, &[Outcome::Wrong; 1]);
        assert!(!ladder_tally(&[wrong]).correct);
    }

    #[test]
    fn saturated_rates_count_ok_completions_per_window() {
        // One Ok completion every 100 µs: 10 000 per second in every window.
        let samples: Vec<Sample> = (0..2 * SATURATED_WINDOW as u64 + 1)
            .map(|i| Sample {
                due_ns: 0,
                done_ns: i * 100_000,
                outcome: Outcome::Ok,
            })
            .collect();
        let rates = saturated_rates(&samples);
        assert_eq!(rates.len(), 2);
        assert!(
            rates.iter().all(|r| (r - 10_000.0).abs() < 1e-6),
            "{rates:?}"
        );
    }

    #[test]
    fn max_rps_slo_is_the_mean_of_the_best_passes() {
        let rung = |rps: u32, met: &[bool]| Rung {
            rps,
            by_pass: met
                .iter()
                .enumerate()
                .map(|(pass, &met)| PassResult {
                    pass,
                    p50_ms: 0.5,
                    p99_ms: 1.0,
                    met,
                })
                .collect(),
            ..Rung::default()
        };
        // Only one pass met the service level at 7000 rps; two stalled
        // passes missed it at 6000. The best three: 7000, 6000, 6000.
        let rungs = [
            rung(5000, &[true; PASSES]),
            rung(
                6000,
                &[true, true, false, true, true, true, false, true, true],
            ),
            rung(
                7000,
                &[false, true, false, false, false, false, false, false, false],
            ),
        ];
        assert_eq!(max_rps_slo(&rungs), 19000.0 / 3.0);
        let better = [
            rung(5000, &[true; PASSES]),
            rung(6000, &[true; PASSES]),
            rung(
                7000,
                &[true, true, false, true, false, false, false, false, false],
            ),
        ];
        assert_eq!(max_rps_slo(&better), 7000.0);
        assert_eq!(slo_rung(&better), 7000);
        assert_eq!(slo_rung(&[rung(500, &[false; PASSES])]), 500);
        assert_eq!(max_rps_slo(&[rung(500, &[false; PASSES])]), 0.0);
    }

    #[test]
    fn failed_requests_miss_the_limit() {
        let mut samples: Vec<Sample> = (0..100)
            .map(|i| Sample {
                due_ns: i * 1_000_000,
                done_ns: i * 1_000_000 + 500_000,
                outcome: Outcome::Ok,
            })
            .collect();
        samples[50].outcome = Outcome::Busy;
        samples[60].outcome = Outcome::Busy;
        let r = Rung::summarize(1000, &samples, &[], 2_000_000_000);
        assert_eq!((r.sent, r.ok, r.failed, r.busy), (100, 98, 2, 2));
        assert!(r.p99_ms > SLO_P99_MS && !r.pass);
        assert!((r.p50_ms - 0.5).abs() < 1e-9);
    }
}
