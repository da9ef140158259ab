//! The three workloads: world set-up, the closed-loop op schedule of each
//! driving thread, and the checks on the program's outputs.

use crate::hist::Hist;
use crate::ledger::{LayerTotals, Ledger};
use crate::world::{fresh_dir, World, WorldSpec, RUN_DIR};
use obiwan_core::demo::{Counter, PayloadNode};
use obiwan_core::{ObiProcess, ObiValue, ObjRef, ReplicationMode, Result};
use obiwan_rmi::RemoteRef;
use obiwan_util::{DetRng, ObiError, ObjId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WALK_LISTS: usize = 64;
const WALK_LEN: usize = 2_000;
const WALK_PAYLOAD: usize = 64;
const WALK_STEP: usize = 16;
const FANIN_THREADS: usize = 2;
const FANIN_SITES_PER_THREAD: usize = 8;
const FANIN_COUNTERS: usize = 64;
const WRITEBACK_THREADS: usize = 2;
const WRITEBACK_REPLICAS: usize = 32;

/// Ops each driving thread runs untimed before measuring.
const WARMUP_PASSES: u64 = 2;
const WARMUP_OPS: u64 = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Walk,
    Fanin,
    Writeback,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "walk" => Some(Kind::Walk),
            "fanin" => Some(Kind::Fanin),
            "writeback" => Some(Kind::Writeback),
            _ => None,
        }
    }

    pub fn driving_threads(self) -> usize {
        match self {
            Kind::Walk => 1,
            Kind::Fanin => FANIN_THREADS,
            Kind::Writeback => WRITEBACK_THREADS,
        }
    }
}

/// When a driving thread stops.
#[derive(Clone, Copy)]
enum Stop {
    /// Measuring: at the first op (a pass, on `walk`) that starts after this.
    At(Instant),
    /// Warming up: after this many ops (passes, on `walk`).
    After(u64),
}

impl Stop {
    fn done(self, count: u64) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n) => count >= n,
        }
    }
}

/// One driving thread's record of a phase.
#[derive(Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    /// Op latency, one histogram per window of the phase (by op end), so
    /// a run can report medians over windows.
    pub windows: Vec<Hist>,
    /// Latency of the ops during which the site's fault counter advanced.
    pub faults: Hist,
    pub layers: LayerTotals,
    /// Output mismatches found by the checks.
    pub mismatches: Vec<String>,
    start: Option<Instant>,
    window: Duration,
}

impl Recorder {
    fn new(start: Instant, window: Duration, windows: usize) -> Recorder {
        Recorder {
            windows: vec![Hist::default(); windows],
            start: Some(start),
            window,
            ..Recorder::default()
        }
    }

    /// Times one op from outside; a failed op counts and the run goes on.
    /// Returns the op's output and latency in nanoseconds.
    fn op<T>(
        &mut self,
        ledger: Option<&Ledger>,
        f: impl FnOnce() -> Result<T>,
    ) -> (Option<T>, u64) {
        let t0 = Instant::now();
        let out = f();
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(ledger) = ledger {
            ledger.end_op(nanos, &mut self.layers);
        }
        self.attempted += 1;
        // A failed op misses every latency limit: it sorts above them all.
        let (out, nanos) = match out {
            Ok(v) => (Some(v), nanos),
            Err(_) => {
                self.failed += 1;
                (None, u64::MAX)
            }
        };
        if let Some(start) = self.start {
            let w = start.elapsed().as_nanos() / self.window.as_nanos().max(1);
            let last = self.windows.len() - 1;
            self.windows[(w as usize).min(last)].record(nanos);
        }
        (out, nanos)
    }

    fn merge(&mut self, o: Recorder) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        if self.windows.is_empty() {
            self.windows = o.windows;
        } else {
            for (a, b) in self.windows.iter_mut().zip(&o.windows) {
                a.merge(b);
            }
        }
        self.faults.merge(&o.faults);
        self.layers.merge(&o.layers);
        self.mismatches.extend(o.mismatches);
    }
}

/// A measured phase: every driving thread's record, merged.
pub struct Phase {
    pub rec: Recorder,
    pub wall: Duration,
    /// Host CPU steal in each window, as a share of the window's CPU time
    /// (empty when unmeasured).
    pub window_steal: Vec<f64>,
}

impl Phase {
    /// Appends a later phase: its windows follow this one's.
    pub fn append(&mut self, o: Phase) {
        if o.window_steal.len() != o.rec.windows.len()
            || self.window_steal.len() != self.rec.windows.len()
        {
            self.window_steal.clear();
        } else {
            self.window_steal.extend(o.window_steal);
        }
        self.rec.attempted += o.rec.attempted;
        self.rec.failed += o.rec.failed;
        self.rec.windows.extend(o.rec.windows);
        self.rec.faults.merge(&o.rec.faults);
        self.rec.layers.merge(&o.rec.layers);
        self.rec.mismatches.extend(o.rec.mismatches);
        self.wall += o.wall;
    }
}

fn thread_rng(seed: u64, phase: u64, thread: usize) -> DetRng {
    // SplitMix64 decorrelates nearby states, so a plain mix suffices.
    DetRng::new(seed ^ (phase << 48) ^ ((thread as u64) << 40))
}

/// Machine-wide (steal, total) CPU time from `/proc/stat`, in jiffies.
/// Steal is CPU time the host gave to other guests while this one wanted
/// it.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = cpu
        .split_whitespace()
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Reads the host's CPU counters at each window boundary until `done`;
/// returns each window's steal as a share of its CPU time.
fn sample_steal(start: Instant, window: Duration, windows: usize, done: &AtomicBool) -> Vec<f64> {
    let mut last = cpu_jiffies();
    let mut steal = Vec::with_capacity(windows);
    for k in 1..=windows as u32 {
        let boundary = start + window * k;
        while !done.load(Ordering::Relaxed) && Instant::now() < boundary {
            std::thread::sleep((boundary - Instant::now()).min(Duration::from_millis(20)));
        }
        let now = cpu_jiffies();
        match (last, now) {
            (Some((s0, t0)), Some((s1, t1))) => {
                steal.push(s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64)
            }
            _ => return Vec::new(),
        }
        last = now;
        if done.load(Ordering::Relaxed) {
            break;
        }
    }
    steal
}

/// Runs `body` on `threads` driving threads and merges their records.
/// In a measured phase (finite windows) a sampler thread records the
/// host's steal in each window.
fn drive(
    threads: usize,
    ledger: Option<&Ledger>,
    window: Duration,
    windows: usize,
    body: impl Fn(usize, &mut Recorder) + Sync,
) -> Phase {
    let start = Instant::now();
    let done = AtomicBool::new(false);
    let (recs, window_steal) = std::thread::scope(|s| {
        let sampler = (window < Duration::MAX)
            .then(|| s.spawn(|| sample_steal(start, window, windows, &done)));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let body = &body;
                s.spawn(move || {
                    if let Some(l) = ledger {
                        l.enable_thread();
                    }
                    let mut rec = Recorder::new(start, window, windows);
                    body(t, &mut rec);
                    rec
                })
            })
            .collect();
        let recs: Vec<Recorder> = handles
            .into_iter()
            .map(|h| h.join().expect("driving thread panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        let steal = sampler.map_or_else(Vec::new, |h| h.join().expect("steal sampler panicked"));
        (recs, steal)
    });
    let wall = start.elapsed();
    let mut rec = Recorder::default();
    for r in recs {
        rec.merge(r);
    }
    Phase {
        rec,
        wall,
        window_steal,
    }
}

/// A built world with its workload state.
pub struct Bench {
    kind: Kind,
    pub world: World,
    ledger: Option<Arc<Ledger>>,
    state: State,
}

enum State {
    Walk {
        heads: Vec<RemoteRef>,
        /// Node ids of each list, in index order.
        ids: Vec<Vec<ObjId>>,
    },
    Fanin {
        counters: Vec<RemoteRef>,
        /// Per counter: `incr`s acked, and `incr`s that failed (which may
        /// or may not have applied).
        incrs: Mutex<(Vec<u64>, Vec<u64>)>,
    },
    Writeback {
        /// Per site: its replicas, and the state of each replica's last
        /// acked put.
        replicas: Vec<Vec<ObjRef>>,
        acked: Mutex<Vec<Vec<i64>>>,
        puts_acked: Mutex<Vec<u64>>,
    },
}

impl Bench {
    /// Builds the world and warms it up: the set-up a `setup_s` sample
    /// times.
    pub fn setup(
        kind: Kind,
        seed: u64,
        workers: usize,
        ledger: Option<Arc<Ledger>>,
    ) -> Result<Bench> {
        let mut spec = WorldSpec {
            clients: 1,
            workers,
            wal_dir: None,
            ledger: ledger.clone(),
        };
        match kind {
            Kind::Walk => {}
            Kind::Fanin => spec.clients = FANIN_THREADS * FANIN_SITES_PER_THREAD,
            Kind::Writeback => {
                let dir = PathBuf::from(RUN_DIR);
                fresh_dir(&dir)?;
                spec.clients = WRITEBACK_THREADS;
                spec.wal_dir = Some(dir);
            }
        }
        let world = World::build(&spec)?;
        let state = match kind {
            Kind::Walk => build_lists(&world.provider)?,
            Kind::Fanin => {
                let counters = export_counters(&world.provider, FANIN_COUNTERS)?;
                State::Fanin {
                    counters,
                    incrs: Mutex::new((vec![0; FANIN_COUNTERS], vec![0; FANIN_COUNTERS])),
                }
            }
            Kind::Writeback => {
                let counters =
                    export_counters(&world.provider, WRITEBACK_THREADS * WRITEBACK_REPLICAS)?;
                let mut replicas = Vec::new();
                for (site, chunk) in world
                    .clients
                    .iter()
                    .zip(counters.chunks(WRITEBACK_REPLICAS))
                {
                    let mut mine = Vec::new();
                    for remote in chunk {
                        mine.push(site.get(remote, ReplicationMode::incremental(1))?);
                    }
                    replicas.push(mine);
                }
                State::Writeback {
                    replicas,
                    acked: Mutex::new(vec![vec![0; WRITEBACK_REPLICAS]; WRITEBACK_THREADS]),
                    puts_acked: Mutex::new(vec![0; WRITEBACK_THREADS]),
                }
            }
        };
        let bench = Bench {
            kind,
            world,
            ledger,
            state,
        };
        let warm = match kind {
            Kind::Walk => Stop::After(WARMUP_PASSES),
            _ => Stop::After(WARMUP_OPS),
        };
        let phase = bench.run_phase(seed, 0, warm, Duration::MAX, 1);
        if let Some(m) = phase.rec.mismatches.first() {
            return Err(ObiError::Internal(format!("warm-up output mismatch: {m}")));
        }
        Ok(bench)
    }

    /// Measures for `seconds` of wall time, in windows of about a second.
    /// `phase` (from 1) picks the op schedule drawn from `seed`.
    pub fn measure(&self, seed: u64, phase: u64, seconds: f64) -> Phase {
        let length = Duration::from_secs_f64(seconds);
        let windows = (seconds.round() as usize).max(1);
        let stop = Stop::At(Instant::now() + length);
        self.run_phase(seed, phase, stop, length / windows as u32, windows)
    }

    fn run_phase(
        &self,
        seed: u64,
        phase: u64,
        stop: Stop,
        window: Duration,
        windows: usize,
    ) -> Phase {
        let ledger = self.ledger.as_deref();
        let threads = self.kind.driving_threads();
        drive(threads, ledger, window, windows, |t, rec| {
            let rng = thread_rng(seed, phase, t);
            match &self.state {
                State::Walk { heads, ids } => self.walk(rng, stop, heads, ids, rec),
                State::Fanin { counters, incrs } => self.fanin(t, rng, stop, counters, incrs, rec),
                State::Writeback {
                    replicas,
                    acked,
                    puts_acked,
                } => self.writeback(t, rng, stop, &replicas[t], acked, puts_acked, rec),
            }
        })
    }

    /// `walk`: fetch a random list head with `incremental(16)`, `touch` down
    /// all 2,000 nodes, then drop the replicas so the next pass faults.
    fn walk(
        &self,
        mut rng: DetRng,
        stop: Stop,
        heads: &[RemoteRef],
        ids: &[Vec<ObjId>],
        rec: &mut Recorder,
    ) {
        let site = &self.world.clients[0];
        let ledger = self.ledger.as_deref();
        let mut passes = 0u64;
        while !stop.done(passes) {
            passes += 1;
            let list = rng.next_below(WALK_LISTS as u64) as usize;
            let root = site.get(&heads[list], ReplicationMode::incremental(WALK_STEP));
            if let Some(l) = ledger {
                l.discard();
            }
            let Ok(root) = root else {
                rec.attempted += 1;
                rec.failed += 1;
                continue;
            };
            let mut cur = Some(root);
            for (i, want) in ids[list].iter().enumerate() {
                let Some(node) = cur else {
                    rec.mismatches
                        .push(format!("list {list} ended after {i} nodes"));
                    break;
                };
                if node.id() != *want {
                    rec.mismatches.push(format!(
                        "list {list} node {i}: visited {} not {want}",
                        node.id()
                    ));
                    break;
                }
                let faults = site.metrics().snapshot().object_faults;
                let (out, nanos) = rec.op(ledger, || site.invoke(node, "touch", ObiValue::Null));
                if site.metrics().snapshot().object_faults > faults {
                    rec.faults.record(nanos);
                }
                // A failed touch abandons the pass; the next one starts over.
                let Some(out) = out else { break };
                cur = out.as_ref_id().map(ObjRef::from);
                if i + 1 == WALK_LEN && cur.is_some() {
                    rec.mismatches
                        .push(format!("list {list} continues past {WALK_LEN} nodes"));
                }
            }
            let t = Instant::now();
            site.remove_root(root);
            site.collect_garbage(true);
            rec.layers.gc_nanos += t.elapsed().as_nanos() as u64;
            if let Some(l) = ledger {
                l.discard();
            }
        }
    }

    /// `fanin`: RMI `read` (9 in 10) or `incr` on a random provider counter
    /// from a random one of this thread's client sites.
    fn fanin(
        &self,
        thread: usize,
        mut rng: DetRng,
        stop: Stop,
        counters: &[RemoteRef],
        incrs: &Mutex<(Vec<u64>, Vec<u64>)>,
        rec: &mut Recorder,
    ) {
        let sites = &self.world.clients
            [thread * FANIN_SITES_PER_THREAD..(thread + 1) * FANIN_SITES_PER_THREAD];
        let ledger = self.ledger.as_deref();
        let mut acked = vec![0u64; counters.len()];
        let mut maybe = vec![0u64; counters.len()];
        let mut ops = 0u64;
        while !stop.done(ops) {
            ops += 1;
            let site = &sites[rng.next_below(sites.len() as u64) as usize];
            let c = rng.next_below(counters.len() as u64) as usize;
            let incr = rng.next_below(10) == 0;
            let method = if incr { "incr" } else { "read" };
            let (out, _) = rec.op(ledger, || {
                site.invoke_rmi(&counters[c], method, ObiValue::Null)
            });
            match (incr, out) {
                (true, Some(_)) => acked[c] += 1,
                (true, None) => maybe[c] += 1,
                (false, Some(v)) if v.as_i64().is_none() => rec
                    .mismatches
                    .push(format!("read of counter {c} returned {v:?}")),
                _ => {}
            }
        }
        let mut shared = incrs.lock().expect("incr tally poisoned");
        for c in 0..counters.len() {
            shared.0[c] += acked[c];
            shared.1[c] += maybe[c];
        }
    }

    /// `writeback`: LMI `incr` on one of this site's replicas, then `put`
    /// it back to its master.
    #[allow(clippy::too_many_arguments)]
    fn writeback(
        &self,
        thread: usize,
        mut rng: DetRng,
        stop: Stop,
        replicas: &[ObjRef],
        acked: &Mutex<Vec<Vec<i64>>>,
        puts_acked: &Mutex<Vec<u64>>,
        rec: &mut Recorder,
    ) {
        let site = &self.world.clients[thread];
        let ledger = self.ledger.as_deref();
        let mut last = acked.lock().expect("acked poisoned")[thread].clone();
        let mut puts = 0u64;
        let mut ops = 0u64;
        while !stop.done(ops) {
            ops += 1;
            let k = rng.next_below(replicas.len() as u64) as usize;
            let (out, _) = rec.op(ledger, || {
                let v = site.invoke(replicas[k], "incr", ObiValue::Null)?;
                site.put(replicas[k])?;
                Ok(v)
            });
            if let Some(v) = out {
                match v.as_i64() {
                    Some(v) => last[k] = v,
                    None => rec.mismatches.push(format!("incr returned {v:?}")),
                }
                puts += 1;
            }
        }
        acked.lock().expect("acked poisoned")[thread] = last;
        puts_acked.lock().expect("puts poisoned")[thread] += puts;
    }

    /// Checks the program's state after the run against what was acked.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let provider = &self.world.provider;
        match &self.state {
            State::Walk { .. } => {}
            State::Fanin { counters, incrs } => {
                let (acked, maybe) = &*incrs.lock().expect("incr tally poisoned");
                for (c, remote) in counters.iter().enumerate() {
                    match read_counter(provider, ObjRef::from(remote.id())) {
                        Some(v) if v >= acked[c] && v <= acked[c] + maybe[c] => {}
                        v => bad.push(format!(
                            "counter {c}: master reads {v:?}, acked incrs {} (+{} unacked)",
                            acked[c], maybe[c]
                        )),
                    }
                }
            }
            State::Writeback {
                replicas,
                acked,
                puts_acked,
            } => {
                let acked = acked.lock().expect("acked poisoned");
                let puts = puts_acked.lock().expect("puts poisoned");
                for (s, site) in self.world.clients.iter().enumerate() {
                    for (k, replica) in replicas[s].iter().enumerate() {
                        let v = read_counter(provider, *replica);
                        if v != u64::try_from(acked[s][k]).ok() {
                            bad.push(format!(
                                "site {s} replica {k}: master reads {v:?}, last acked put carried {}",
                                acked[s][k]
                            ));
                        }
                    }
                    let syncs = site.durability().map_or(0, |d| d.wal_stats().syncs());
                    if syncs < puts[s] {
                        bad.push(format!(
                            "site {s}: {syncs} WAL syncs for {} acked puts",
                            puts[s]
                        ));
                    }
                }
            }
        }
        bad
    }
}

fn read_counter(provider: &ObiProcess, id: ObjRef) -> Option<u64> {
    let v = provider.invoke(id, "read", ObiValue::Null).ok()?;
    u64::try_from(v.as_i64()?).ok()
}

fn export_counters(provider: &ObiProcess, n: usize) -> Result<Vec<RemoteRef>> {
    (0..n)
        .map(|_| provider.export_anonymous(provider.create(Counter::new(0))))
        .collect()
}

fn build_lists(provider: &ObiProcess) -> Result<State> {
    let mut heads = Vec::with_capacity(WALK_LISTS);
    let mut ids = Vec::with_capacity(WALK_LISTS);
    for l in 0..WALK_LISTS {
        let mut next = None;
        let mut list = Vec::with_capacity(WALK_LEN);
        for i in (0..WALK_LEN).rev() {
            let mut node = PayloadNode::sized((l * WALK_LEN + i) as i64, WALK_PAYLOAD);
            node.set_next(next);
            let r = provider.create(node);
            list.push(r.id());
            next = Some(r);
        }
        list.reverse();
        heads.push(provider.export_anonymous(next.expect("lists are not empty"))?);
        ids.push(list);
    }
    Ok(State::Walk { heads, ids })
}
