//! The host-speed reference: a fixed computation that belongs to the
//! benchmark (a breadth-first search over a seeded random graph, then a
//! sort of seeded keys), timed on the server's CPU between the closed
//! loop's requests.
//!
//! The benchmark runs on hosts shared with other tenants, where the
//! speed of one CPU drifts by a third within minutes; the engine's time
//! per request drifts with it, and so does the reference. A timing
//! multiplied by [`NOMINAL_MS`] over the median of the reference times
//! next to it is the timing on a host where the reference takes
//! `NOMINAL_MS`. Timing one tester pass and the reference in turn for
//! 150 s on a 2-vCPU Xeon VM, the pass's 10-second medians spread 33%
//! (52 to 94 ms) and the scaled ones 5%.
//!
//! The reference is code of the benchmark alone, so a change to the
//! program under test moves the scaled timings as it moves the raw ones.

use std::collections::VecDeque;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::report::median;

/// The reference's time on the host the scale is set to, ms (a run's
/// median took 16 to 31 ms on a 2-vCPU Xeon VM shared with other
/// tenants).
pub const NOMINAL_MS: f64 = 20.0;

/// Reference times on each side of a timing that set its scale.
const NEAR: usize = 4;

const NODES: usize = 100_000;
const EDGES: usize = 400_000;
const KEYS: usize = 200_000;

/// The reference computation's fixed inputs and reused buffers.
pub struct Reference {
    adjacency: Vec<Vec<u32>>,
    dist: Vec<u32>,
    queue: VecDeque<u32>,
    keys: Vec<u64>,
}

/// A 64-bit linear congruential generator: the reference must not
/// depend on any code outside the benchmark.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 17
    }
}

impl Reference {
    pub fn new() -> Reference {
        let mut rng = Lcg(7);
        let mut adjacency = vec![Vec::new(); NODES];
        for _ in 0..EDGES {
            let a = (rng.next() % NODES as u64) as usize;
            let b = (rng.next() % NODES as u64) as usize;
            adjacency[a].push(b as u32);
            adjacency[b].push(a as u32);
        }
        Reference {
            adjacency,
            dist: vec![0; NODES],
            queue: VecDeque::with_capacity(NODES),
            keys: vec![0; KEYS],
        }
    }

    /// Runs the computation once; returns its time in ms.
    pub fn time(&mut self) -> f64 {
        let started = Instant::now();
        self.dist.fill(u32::MAX);
        self.dist[0] = 0;
        self.queue.push_back(0);
        while let Some(v) = self.queue.pop_front() {
            let next = self.dist[v as usize] + 1;
            for &w in &self.adjacency[v as usize] {
                if self.dist[w as usize] == u32::MAX {
                    self.dist[w as usize] = next;
                    self.queue.push_back(w);
                }
            }
        }
        let mut rng = Lcg(11);
        for k in &mut self.keys {
            *k = rng.next();
        }
        self.keys.sort_unstable();
        std::hint::black_box((&self.dist, &self.keys));
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// `times[i]` scaled to the nominal host by the reference times around
/// it: `refs[i]` is the one timed next to `times[i]`, and the scale is
/// [`NOMINAL_MS`] over the median of it and the `NEAR` on each side.
/// With fewer reference times than timings (none were timed between
/// them), every timing takes [`scale`] of all of them, and with none it
/// is left as measured.
pub fn scaled(times: &[f64], refs: &[f64]) -> Vec<f64> {
    let whole = scale(refs);
    times
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if refs.len() < times.len() {
                return t * whole;
            }
            let near = &refs[i.saturating_sub(NEAR)..(i + NEAR + 1).min(refs.len())];
            t * NOMINAL_MS / median(near)
        })
        .collect()
}

/// [`NOMINAL_MS`] over the median of `refs`: the one scale for timings
/// taken among them (1 if there are none).
pub fn scale(refs: &[f64]) -> f64 {
    if refs.is_empty() {
        1.0
    } else {
        NOMINAL_MS / median(refs)
    }
}

/// Pins every thread of this process, and every process it starts from
/// now on, to the first CPU it may run on, so that the reference runs on
/// the CPU the server computes on. Returns that CPU, or `None` if the
/// `taskset` tool is missing or failed (the run goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let cpu: usize = allowed.split([',', '-']).next()?.parse().ok()?;
    let pid = std::process::id().to_string();
    let pinned = Command::new("taskset")
        .args(["-a", "-p", "-c", &cpu.to_string(), &pid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()?
        .success();
    pinned.then_some(cpu)
}
