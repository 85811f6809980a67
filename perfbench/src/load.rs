//! The open-loop load generator: one thread, a few TCP connections,
//! requests sent on a fixed schedule whether or not earlier ones were
//! answered.
//!
//! Each request is timed from the moment it was *due*, so a stall in the
//! daemon (or in the generator) shows up in the latency of every request
//! queued behind it. The daemon answers a connection one line at a time,
//! in order, so responses are matched to requests first-in first-out.
//!
//! The sockets keep the system's default options, as a plain client's
//! would. The daemon writes an answer and its newline in two writes
//! without `TCP_NODELAY`, so the newline waits until the client
//! acknowledges the answer: with delayed ACKs that is the client's next
//! request on the connection, or the delayed-ACK timer. The measured
//! latency includes that wait, because a user of the daemon sees it too.
//!
//! The generator either sleeps between events or busy-polls (see
//! [`Wait`]). Sleeping, it wakes for each due time on a virtual CPU that
//! went idle, which on a shared host now and then takes milliseconds; the
//! next request on a connection then goes out late and, with it, the
//! newline of the answer before it.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use profirt_base::Prng;

use crate::corpus::Corpus;
use crate::stats;
use crate::sys;

/// What one paced phase observed.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Responses received.
    pub answered: usize,
    /// Latency of each answered request from its due time, ascending, µs.
    pub latencies_us: Vec<f64>,
    /// Latency of every request in send order, µs; infinite when
    /// unanswered.
    pub by_send_us: Vec<f64>,
    /// Responses that differ from the reference answer.
    pub mismatched: usize,
    /// Of those, refusals: `overloaded`, `shed` or `closed`.
    pub refused: usize,
    /// First mismatch seen: (request, expected, received).
    pub first_mismatch: Option<(String, String, String)>,
    /// Latest a request left the generator after its due time, µs.
    pub max_lag_us: f64,
    /// Largest number of requests outstanding at once.
    pub backlog_max: usize,
    /// Requests outstanding right after each request was sent, in send
    /// order.
    pub backlog_by_send: Vec<usize>,
    /// Whether every request was answered before the drain deadline.
    pub drained: bool,
}

impl PhaseResult {
    /// Requests that failed: unanswered, refused or wrong.
    pub fn failed(&self) -> usize {
        self.mismatched + (self.sent - self.answered)
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    /// Due time, corpus line and send index of each unanswered request.
    pending: VecDeque<(Instant, usize, usize)>,
}

fn is_refusal(response: &str) -> bool {
    ["\"overloaded\"", "\"shed\"", "\"closed\""]
        .iter()
        .any(|k| response.contains(&format!("\"kind\":{k}")))
}

/// Persistent connections to the daemon. Opening them is not timed: the
/// first phase after [`Client::connect`] should be a warm-up.
pub struct Client {
    conns: Vec<Conn>,
    seed: u64,
}

impl Client {
    /// Opens `n` connections; `seed` drives the arrival schedules.
    pub fn connect(addr: SocketAddr, n: usize, seed: u64) -> Result<Client, String> {
        let conns = (0..n.max(1))
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    out: Vec::new(),
                    written: 0,
                    inbuf: Vec::new(),
                    pending: VecDeque::new(),
                })
            })
            .collect::<std::io::Result<_>>()
            .map_err(|e| format!("connect to daemon: {e}"))?;
        Ok(Client { conns, seed })
    }
}

/// How the generator waits for the next due time or answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// Sleeps in `ppoll`, leaving the machine's CPUs to the daemon.
    Sleep,
    /// Polls the sockets without sleeping, so requests leave on time; it
    /// keeps one CPU busy for the phase.
    Spin,
}

/// Sends `rate × secs` requests from `corpus` (starting at line `first`,
/// wrapping) over the client's connections on a schedule of Poisson
/// arrivals drawn from the client's seed and `first`, then waits up to
/// `drain` for the remaining answers. A phase that does not drain leaves
/// answers in flight: reconnect before the next one.
pub fn drive(
    client: &mut Client,
    corpus: &Corpus,
    first: usize,
    rate: f64,
    secs: f64,
    drain: Duration,
    wait: Wait,
) -> Result<PhaseResult, String> {
    let io = |e: std::io::Error| format!("load generator: {e}");
    let cs = &mut client.conns;
    if cs.iter().any(|c| !c.pending.is_empty()) {
        return Err("load generator: previous phase still has answers in flight".into());
    }
    let total = (rate * secs).round() as usize;
    let mut r = PhaseResult {
        rate,
        drained: false,
        ..PhaseResult::default()
    };
    let mut latencies = vec![f64::INFINITY; total];
    let mut buf = vec![0u8; 64 * 1024];
    // Poisson arrivals: independent users, exponential gaps with mean
    // 1/rate, drawn from the phase's seed.
    let mut rng =
        Prng::seed_from_u64(client.seed ^ (first as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut at = 0.0f64;
    let offsets: Vec<Duration> = (0..=total)
        .map(|_| {
            let d = Duration::from_secs_f64(at);
            at += -(1.0 - rng.unit()).ln() / rate;
            d
        })
        .collect();
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |k: usize| t0 + offsets[k];
    let hard_end = due(total) + drain;
    let mut k = 0usize;
    loop {
        let now = Instant::now();
        while k < total && due(k) <= now {
            let idx = (first + k) % corpus.lines.len();
            let nconns = cs.len();
            let c = &mut cs[k % nconns];
            c.out.extend_from_slice(corpus.lines[idx].as_bytes());
            c.out.push(b'\n');
            c.pending.push_back((due(k), idx, k));
            let lag = now.saturating_duration_since(due(k)).as_secs_f64() * 1e6;
            r.max_lag_us = r.max_lag_us.max(lag);
            k += 1;
            r.sent += 1;
            let backlog: usize = cs.iter().map(|c| c.pending.len()).sum();
            r.backlog_max = r.backlog_max.max(backlog);
            r.backlog_by_send.push(backlog);
        }
        for c in cs.iter_mut() {
            while c.written < c.out.len() {
                match c.stream.write(&c.out[c.written..]) {
                    Ok(0) => return Err("load generator: connection closed".into()),
                    Ok(m) => c.written += m,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(io(e)),
                }
            }
            if c.written == c.out.len() {
                c.out.clear();
                c.written = 0;
            }
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => return Err("load generator: daemon closed the connection".into()),
                    Ok(m) => c.inbuf.extend_from_slice(&buf[..m]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(io(e)),
                }
            }
            let seen = Instant::now();
            let mut start = 0;
            while let Some(nl) = c.inbuf[start..].iter().position(|&b| b == b'\n') {
                let line = &c.inbuf[start..start + nl];
                start += nl + 1;
                let Some((due_at, idx, sent_as)) = c.pending.pop_front() else {
                    return Err("load generator: response without a request".into());
                };
                r.answered += 1;
                latencies[sent_as] = seen.saturating_duration_since(due_at).as_secs_f64() * 1e6;
                if line != corpus.refs[idx].as_bytes() {
                    let got = String::from_utf8_lossy(line).into_owned();
                    r.mismatched += 1;
                    if is_refusal(&got) {
                        r.refused += 1;
                    }
                    if r.first_mismatch.is_none() {
                        r.first_mismatch =
                            Some((corpus.lines[idx].clone(), corpus.refs[idx].clone(), got));
                    }
                }
            }
            c.inbuf.drain(..start);
        }
        let outstanding = cs.iter().any(|c| !c.pending.is_empty());
        if k == total && !outstanding {
            r.drained = true;
            break;
        }
        let now = Instant::now();
        if now >= hard_end {
            break;
        }
        let wake = if k < total { due(k) } else { hard_end };
        let timeout = wake.saturating_duration_since(now);
        if wait == Wait::Spin {
            std::hint::spin_loop();
        } else if !timeout.is_zero() {
            let fds: Vec<_> = cs
                .iter()
                .map(|c| (c.stream.as_raw_fd(), !c.out.is_empty()))
                .collect();
            sys::wait_ready(&fds, timeout).map_err(io)?;
        }
    }
    r.by_send_us = latencies.clone();
    latencies.retain(|x| x.is_finite());
    latencies.sort_by(f64::total_cmp);
    r.latencies_us = latencies;
    Ok(r)
}

/// The median, over consecutive windows of `window` requests in send
/// order, of each window's nearest-rank `p`-th percentile latency, with
/// the number of windows. An unanswered request counts as an infinite
/// latency. `None` unless every window has at least
/// [`stats::MIN_TAIL_SAMPLES`] samples beyond its percentile.
pub fn windowed_percentile(by_send_us: &[f64], window: usize, p: f64) -> Option<(f64, usize)> {
    let per_window = window_percentiles(by_send_us, window, p);
    let whole = by_send_us.len() / window.max(1);
    if per_window.is_empty() || per_window.len() < whole {
        return None;
    }
    Some((stats::median(&per_window)?, per_window.len()))
}

/// Each complete window's nearest-rank `p`-th percentile, in send order,
/// skipping windows without [`stats::MIN_TAIL_SAMPLES`] beyond it.
pub fn window_percentiles(by_send_us: &[f64], window: usize, p: f64) -> Vec<f64> {
    by_send_us
        .chunks(window.max(1))
        .filter(|w| w.len() == window)
        .filter_map(|w| {
            let mut sorted = w.to_vec();
            sorted.sort_by(f64::total_cmp);
            stats::tail_percentile(&sorted, p)
        })
        .collect()
}

/// Joins phases sent at one rate into one result, in send order.
pub fn merge(parts: &[PhaseResult]) -> PhaseResult {
    let mut all = PhaseResult {
        rate: parts.first().map_or(0.0, |p| p.rate),
        drained: parts.iter().all(|p| p.drained),
        ..PhaseResult::default()
    };
    for p in parts {
        all.sent += p.sent;
        all.answered += p.answered;
        all.mismatched += p.mismatched;
        all.refused += p.refused;
        all.latencies_us.extend_from_slice(&p.latencies_us);
        all.by_send_us.extend_from_slice(&p.by_send_us);
        if all.first_mismatch.is_none() {
            all.first_mismatch.clone_from(&p.first_mismatch);
        }
        all.max_lag_us = all.max_lag_us.max(p.max_lag_us);
        all.backlog_max = all.backlog_max.max(p.backlog_max);
        all.backlog_by_send.extend_from_slice(&p.backlog_by_send);
    }
    all.latencies_us.sort_by(f64::total_cmp);
    all
}

/// The fixed rate ladder, requests per second: 100 × 1.05ⁱ, up to about
/// 100k.
pub fn ladder() -> Vec<f64> {
    (0..142)
        .map(|i| (100.0 * 1.05f64.powi(i)).round())
        .collect()
}

/// Rungs skipped per step while climbing before the bisection.
const COARSE_STEP: usize = 16;

/// Equal parts a rung's requests are judged in, in send order.
pub const RUNG_WINDOWS: usize = 5;

/// A rung's verdict under the latency limit.
#[derive(Clone, Debug)]
pub struct Rung {
    /// The phase measured at this rate.
    pub phase: PhaseResult,
    /// The tail percentile judged in each window (the highest ≤ p99 the
    /// window's sample supports).
    pub percentile: Option<f64>,
    /// The median over the windows of that percentile's latency, µs.
    pub tail_us: Option<f64>,
    /// The median over the windows of the backlog at each window's last
    /// send.
    pub backlog: f64,
    /// Whether the rung met the limit without a growing backlog.
    pub pass: bool,
}

/// Judges one rung on [`RUNG_WINDOWS`] consecutive windows of its
/// requests: every request answered correctly, the median window's tail
/// latency within `limit_us`, and the median window's closing backlog
/// within the limit's worth of traffic. A daemon that cannot keep up
/// grows its backlog and its latency through most windows; one pause of
/// the machine spoils one or two windows and leaves the medians alone.
pub fn judge(phase: PhaseResult, limit_us: f64, conns: usize) -> Rung {
    let w = (phase.by_send_us.len() / RUNG_WINDOWS).max(1);
    let percentile = stats::highest_supported(w, 99.0);
    let tails: Vec<f64> = phase
        .by_send_us
        .chunks(w)
        .filter(|c| c.len() == w)
        .filter_map(|c| {
            let mut sorted = c.to_vec();
            sorted.sort_by(f64::total_cmp);
            stats::tail_percentile(&sorted, percentile?)
        })
        .collect();
    let backlogs: Vec<f64> = phase
        .backlog_by_send
        .chunks(w)
        .filter(|c| c.len() == w)
        .filter_map(|c| c.last().map(|&b| b as f64))
        .collect();
    let tail_us = stats::median(&tails);
    let backlog = stats::median(&backlogs).unwrap_or(f64::INFINITY);
    let backlog_cap = (phase.rate * limit_us / 1e6).max(2.0 * conns as f64);
    let pass = phase.drained
        && phase.failed() == 0
        && tail_us.is_some_and(|t| t <= limit_us)
        && backlog <= backlog_cap;
    Rung {
        phase,
        percentile,
        tail_us,
        backlog,
        pass,
    }
}

/// One climb of the ladder, measuring rung `start` first. If it passes:
/// coarse steps of [`COARSE_STEP`] rungs until one fails, then bisection
/// between the last pass and that failure. If it fails: bisection below
/// it. Returns every rung measured, in order.
pub fn climb(
    start: usize,
    mut measure: impl FnMut(usize) -> Result<Rung, String>,
) -> Result<Vec<(usize, Rung)>, String> {
    let top = ladder().len() - 1;
    let first = measure(start)?;
    let start_passed = first.pass;
    let mut rungs = vec![(start, first)];
    // `lo` passed (or is the virtual rung below the ladder), `hi` failed
    // (or is the virtual rung above it).
    let (mut lo, mut hi) = if start_passed {
        (start as isize, top as isize + 1)
    } else {
        (-1, start as isize)
    };
    let mut i = start + COARSE_STEP;
    while start_passed && i <= top {
        let r = measure(i)?;
        let pass = r.pass;
        rungs.push((i, r));
        if !pass {
            hi = i as isize;
            break;
        }
        lo = i as isize;
        i += COARSE_STEP;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let r = measure(mid as usize)?;
        let pass = r.pass;
        rungs.push((mid as usize, r));
        if pass {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(rungs)
}

/// The rate of the highest passing rung of one climb, or `None` when no
/// rung passed.
pub fn max_passing(rungs: &[(usize, Rung)]) -> Option<f64> {
    let ladder = ladder();
    rungs
        .iter()
        .filter(|(_, r)| r.pass)
        .map(|(i, _)| ladder[*i])
        .reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(pass: bool) -> Rung {
        Rung {
            phase: PhaseResult::default(),
            percentile: None,
            tail_us: None,
            backlog: 0.0,
            pass,
        }
    }

    #[test]
    fn climb_steps_coarse_then_bisects() {
        // Capacity between rungs 10 and 11: the start, coarse 16 (fails),
        // then bisection 8, 12 (fails), 10, 11 (fails).
        let mut seen = Vec::new();
        let rungs = climb(0, |i| {
            seen.push(i);
            Ok(rung(i <= 10))
        })
        .unwrap();
        assert_eq!(seen, vec![0, 16, 8, 12, 10, 11]);
        assert_eq!(max_passing(&rungs), Some(ladder()[10]));
    }

    #[test]
    fn climb_stops_at_the_start_when_nothing_above_passes() {
        let rungs = climb(3, |i| Ok(rung(i < 4))).unwrap();
        // The start passes, coarse 19 fails; bisection tries 11, 7, 5, 4.
        assert_eq!(
            rungs.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![3, 19, 11, 7, 5, 4]
        );
        assert_eq!(max_passing(&rungs), Some(ladder()[3]));
    }

    #[test]
    fn climb_bisects_below_a_failed_start() {
        let rungs = climb(8, |i| Ok(rung(i <= 2))).unwrap();
        assert_eq!(
            rungs.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![8, 3, 1, 2]
        );
        assert_eq!(max_passing(&rungs), Some(ladder()[2]));
        let none = climb(2, |_| Ok(rung(false))).unwrap();
        assert_eq!(none.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![2, 0]);
        assert_eq!(max_passing(&none), None);
    }

    fn steady(rate: f64, n: usize, latency_us: f64, backlog: usize) -> PhaseResult {
        PhaseResult {
            rate,
            sent: n,
            answered: n,
            by_send_us: vec![latency_us; n],
            backlog_by_send: vec![backlog; n],
            drained: true,
            ..PhaseResult::default()
        }
    }

    #[test]
    fn judge_rejects_growing_backlog() {
        let calm = steady(1000.0, 5000, 100.0, 3);
        assert!(judge(calm.clone(), 5000.0, 2).pass);
        // The backlog climbs through the rung: most windows close above
        // the 5 ms worth of traffic (5 requests at 1000 req/s).
        let growing = PhaseResult {
            backlog_by_send: (0..5000).map(|k| k / 100).collect(),
            ..calm
        };
        assert!(!judge(growing, 5000.0, 2).pass);
    }

    #[test]
    fn judge_ignores_one_stalled_window() {
        let mut phase = steady(10_000.0, 5000, 200.0, 4);
        // A pause delays the whole second window and leaves a backlog at
        // its end.
        for x in &mut phase.by_send_us[1000..2000] {
            *x = 80_000.0;
        }
        phase.backlog_by_send[1999] = 900;
        let r = judge(phase.clone(), 50_000.0, 2);
        assert!(r.pass);
        assert_eq!(r.tail_us, Some(200.0));
        // Three stalled windows of five fail the rung.
        for x in &mut phase.by_send_us[2000..4000] {
            *x = 80_000.0;
        }
        assert!(!judge(phase.clone(), 50_000.0, 2).pass);
        // So does one unanswered request.
        let mut lost = steady(10_000.0, 5000, 200.0, 4);
        lost.answered -= 1;
        lost.by_send_us[7] = f64::INFINITY;
        assert!(!judge(lost, 50_000.0, 2).pass);
    }

    #[test]
    fn windowed_percentile_is_the_median_window() {
        // Three windows of 1000: p99s 990, 1990 and a stalled 50000.
        let mut by_send: Vec<f64> = (1..=1000).map(f64::from).collect();
        by_send.extend((1001..=2000).map(f64::from));
        by_send.extend(std::iter::repeat_n(50_000.0, 1000));
        assert_eq!(
            window_percentiles(&by_send, 1000, 99.0),
            vec![990.0, 1990.0, 50_000.0]
        );
        assert_eq!(windowed_percentile(&by_send, 1000, 99.0), Some((1990.0, 3)));
        // The trailing partial window is ignored; a short sample has none.
        by_send.push(1.0);
        assert_eq!(windowed_percentile(&by_send, 1000, 99.0), Some((1990.0, 3)));
        assert_eq!(windowed_percentile(&by_send[..999], 1000, 99.0), None);
    }

    #[test]
    fn unanswered_requests_count_as_infinitely_late() {
        let mut by_send = vec![10.0; 1000];
        for x in by_send.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        assert_eq!(
            window_percentiles(&by_send, 1000, 99.0),
            vec![f64::INFINITY]
        );
    }

    #[test]
    fn merge_keeps_send_order_and_sums_counts() {
        let a = PhaseResult {
            rate: 2000.0,
            sent: 2,
            answered: 2,
            by_send_us: vec![5.0, 1.0],
            latencies_us: vec![1.0, 5.0],
            drained: true,
            max_lag_us: 3.0,
            ..PhaseResult::default()
        };
        let b = PhaseResult {
            sent: 1,
            by_send_us: vec![f64::INFINITY],
            drained: false,
            max_lag_us: 7.0,
            ..a.clone()
        };
        let m = merge(&[a, b]);
        assert_eq!(m.sent, 3);
        assert_eq!(m.by_send_us, vec![5.0, 1.0, f64::INFINITY]);
        assert_eq!(m.latencies_us, vec![1.0, 1.0, 5.0, 5.0]);
        assert!(!m.drained);
        assert_eq!(m.max_lag_us, 7.0);
    }

    #[test]
    fn refusals_are_recognised() {
        assert!(is_refusal(
            r#"{"error":{"detail":"x","kind":"overloaded"},"id":1,"ok":false}"#
        ));
        assert!(!is_refusal(r#"{"id":1,"ok":true,"op":"ping"}"#));
    }
}
