//! Real-clock benchmark of the OBIWAN public API, with a per-layer ledger
//! measured from outside the program.
//!
//! ```text
//! perfbench --workload <walk|fanin|writeback> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Build and run it from the repository root with `python3 perfbench/run.py`
//! and the same arguments. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, and the metrics of the mode.
//!
//! # Substrate
//!
//! Everything runs in one process. Sites talk over the in-process
//! `MemTransport`; the provider drains its inbox with a worker pool of
//! `nproc` threads (`register_with_workers`); there is no `ServiceDelay`.
//! Clocks run in `ClockMode::Hybrid` with `CostModel::free()`, so nothing
//! is charged virtually and all time measured here is real. `writeback`
//! keeps its WAL in `FileStorage` under `.bench_run/` in the working
//! directory, with `sync` counted but not issued: the device is excluded,
//! as on a tmpfs, except for the fsyncs inside compaction's `replace` and
//! `truncate` (see `world::PageCacheStorage`).
//!
//! Every op is timed with `Instant` around the public call. Do not use
//! `Metrics::latency_snapshot` here: its histograms count virtual time,
//! and with `CostModel::free()` they read zero.
//!
//! # Load
//!
//! A closed loop: each driving thread waits for an op's reply before it
//! sends the next, like an OBIWAN application thread. Every op schedule
//! comes from `DetRng` seeded by `--seed`; the seed is printed.
//!
//! # Workloads
//!
//! * `walk` (1 driving thread, 1 consumer site). The provider exports 64
//!   lists of 2,000 64-byte `PayloadNode`s (128k objects). A pass `get`s a
//!   random list head with `incremental(16)`, `invoke`s `touch` on every
//!   node in order, then `remove_root` + `collect_garbage(true)`, so the
//!   next pass faults again. One op is one `invoke`. Most of the work is
//!   core fault/materialize/swizzle, streamed wire chunks (16 objects:
//!   chunk 0 installed inline, one tail chunk parked) and rmi/net
//!   streaming. No store calls, no lock contention.
//! * `fanin` (2 driving threads x 8 client sites). One op is one
//!   `invoke_rmi` on a random one of 64 provider-mastered `Counter`s,
//!   `read` 9 times in 10 and `incr` once. Most of the work is rmi dispatch
//!   with ReplyCache admission, the net inbox/worker handoff, small wire
//!   frames and shard contention at the master. No faults.
//! * `writeback` (2 driving threads, one client site each). Each site has
//!   its own `Durable` WAL and 32 disjoint `Counter` replicas. One op is an
//!   LMI `incr` then a `put`; each put forces its intent to the WAL before
//!   the RPC leaves. The write path beside `walk`'s read path, and the only
//!   workload that uses `store`.
//!
//! # Checks
//!
//! * `walk`: each pass visits exactly 2,000 nodes, in index order.
//! * `fanin`: each master counter equals the `incr`s acked for it
//!   (exactly-once); an `incr` that failed may or may not have applied.
//! * `writeback`: each master equals its replica's last acked state, and
//!   the WAL synced at least once per acked put.
//!
//! A failed op counts in `failed` and in `error_ratio`, and counts as
//! missing every latency limit (it sorts above every latency); the run
//! goes on. A mismatch makes `correct` false and the exit code 1.
//!
//! # End-to-end metrics (`--trace 0`, untraced worlds)
//!
//! A run builds five worlds in turn. Each is built and warmed up (one
//! `setup_s` sample) and then measured for a fifth of `--seconds`, in
//! windows of about a second. Fresh worlds start fresh threads, so a run
//! samples several of the scheduler's thread placements, and one-second
//! windows let a run report medians: the op handoffs between threads that
//! dominate `fanin` and the faults of `walk` swing from one second to the
//! next on a small machine.
//!
//! * `ops_per_s`: completed ops per second of a window.
//! * `op_p50_us`, `op_p99_us`: per-op latency quantiles of a window.
//! * `setup_s`: world build plus warm-up, the median of the five.
//! * `peak_rss_mb`: VmHWM of the process once the first world has been
//!   measured. Later worlds reuse freed memory in whatever pattern the
//!   allocator's per-thread arenas leave, which would add noise and no
//!   information. Latency samples go to fixed-size histograms, so the
//!   figure does not grow with throughput.
//!
//! The first three are medians over the quiet windows: those in which
//! the host stole at most 1% of the CPU time, or, when fewer than five
//! are, the five in which it stole least.
//! Steal (from `/proc/stat`) is CPU time the host gave to other guests
//! while this one wanted it, so quiet windows measure the program rather
//! than its neighbours. Each run prints the steal of every window.
//!
//! Printed above the JSON line only: the whole-run figures, sample counts,
//! `error_ratio` (zero on a clean run; the JSON carries it as
//! `failed`/`attempted`) and, on `walk`, `fault_p50_us`/`fault_p99_us`
//! over the ops during which the site's `object_faults` counter advanced,
//! read outside the timed window (the paper's time to first invocation of
//! each batch). On `walk` about one op in 16 faults, so `op_p99_us` lands
//! on the fault cost.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! An untraced world runs half of `--seconds`, then a world built with the
//! `ledger` wrappers runs the other half. All figures are per op unless
//! named otherwise; each line names the end-to-end metric and workload it
//! should move.
//!
//! * `net.hop_us`: client call time minus the server's handle time for the
//!   same `RequestId` (inbox queueing and thread handoff), plus cast time;
//!   `net.calls_per_op`, `net.casts_per_op` (one-way frames such as reply
//!   horizon acks), `net.bytes_per_op`, `net.frames_per_call` (reply
//!   frames: chunks plus the terminal).
//!   -> `op_p50_us`/`op_p99_us` on `fanin`.
//! * `rmi.handle_us` (server dispatch, ReplyCache and master-side core, one
//!   span from outside), `rmi.busy_ratio` (all handle time / (wall x
//!   workers)), `rmi.retries_per_op`, `rmi.cached_reply_ratio` (replies
//!   from the ReplyCache / replies). -> `ops_per_s` on `fanin`,
//!   `op_p50_us` on `writeback`.
//! * `wire.decode_us`, `wire.encode_us`: `Message::decode`/`encode`
//!   replayed on copies of each frame after the op. Contained in
//!   `rmi.handle_us` and `core.self_us`, so not added to the sum.
//!   -> `op_p99_us` (the fault) on `walk`, `op_p50_us` on `fanin`.
//! * `core.self_us` (op time minus client-side transport and storage
//!   time; `on_frame` callbacks count as core), `core.faults_per_op`,
//!   `core.objects_per_round_trip`, `core.gc_us` (between ops).
//!   -> `ops_per_s` and `op_p99_us` on `walk`.
//! * `store.append_us`, `store.sync_us` (sync, truncate, replace),
//!   `store.syncs_per_op`, `store.bytes_per_op`. -> `ops_per_s` and
//!   `op_p50_us` on `writeback`; zero on `walk` and `fanin`.
//! * `unaccounted_us`: op time minus `core.self_us`, `net.hop_us`,
//!   `rmi.handle_us`, `store.append_us` and `store.sync_us`: call time no
//!   server span matched, and storage reads.
//! * `trace_overhead_ratio`: untraced / traced `ops_per_s`.
//!
//! Not measured: shard-lock wait and the split of master-side time between
//! rmi and core (both need spans inside the program), the mobility and
//! consistency crates (no hot path here), TCP loopback, device fsync.

mod hist;
mod ledger;
mod workloads;
mod world;

use hist::Hist;
use ledger::Ledger;
use workloads::{Bench, Kind, Phase};

use std::process::ExitCode;
use std::time::Instant;

/// Host steal, as a share of CPU time, up to which a window is quiet. On
/// a 2-vCPU guest, windows with 2-4% steal read `fanin`'s p99 about a
/// fifth higher than windows with none.
const QUIET_STEAL: f64 = 0.01;

/// Windows a run reports on at least, the least-stolen first.
const MIN_QUIET: usize = 5;

/// Worlds built, warmed up and measured in turn in one end-to-end run.
const EPOCHS: usize = 5;

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        workload,
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Which of `windows` windows are quiet, given each one's host steal;
/// all of them when steal was not measured.
fn quiet_windows(steal: &[f64], windows: usize) -> Vec<bool> {
    if steal.len() != windows {
        return vec![true; windows];
    }
    let mut order: Vec<usize> = (0..windows).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut quiet = vec![false; windows];
    for (rank, &i) in order.iter().enumerate() {
        quiet[i] = rank < MIN_QUIET || steal[i] <= QUIET_STEAL;
    }
    quiet
}

/// The median; 0 when empty.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ops_per_s(p: &Phase) -> f64 {
    ratio(
        (p.rec.attempted - p.rec.failed) as f64,
        p.wall.as_secs_f64(),
    )
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// A run's measured phases, output mismatches and metrics.
type Outcome = (Vec<Phase>, Vec<String>, Vec<Metric>);

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Measures `EPOCHS` untraced worlds in turn, each built and warmed up
/// afresh (a timed set-up) and measured for an equal share of `--seconds`.
/// Fresh worlds start fresh threads, so one run samples several of the
/// scheduler's thread placements rather than one.
fn end_to_end(args: &Args, workers: usize) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(EPOCHS);
    let mut bad = Vec::new();
    let mut run: Option<Phase> = None;
    let mut rss_mb = 0.0;
    for epoch in 0..EPOCHS {
        let t = Instant::now();
        let bench = Bench::setup(args.kind, args.seed, workers, None).map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        let phase = bench.measure(args.seed, 1 + epoch as u64, args.seconds / EPOCHS as f64);
        bad.extend(bench.check());
        if epoch == 0 {
            rss_mb = peak_rss_mb();
        }
        match &mut run {
            Some(run) => run.append(phase),
            None => run = Some(phase),
        }
    }
    let phase = run.expect("EPOCHS > 0");
    // Each window's throughput and quantiles; the run reports their
    // medians over the quiet windows (see the module docs).
    let rec = &phase.rec;
    let window_s = args.seconds / rec.windows.len() as f64;
    let steal = &phase.window_steal;
    let quiet = quiet_windows(steal, rec.windows.len());
    let mut whole = Hist::default();
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for w in &rec.windows {
        whole.merge(w);
        rates.push(w.completed() as f64 / window_s);
        p50s.push(w.quantile_us(0.5));
        p99s.push(w.quantile_us(0.99));
    }
    let quiet_median = |v: &[f64]| {
        median(
            v.iter()
                .zip(&quiet)
                .filter(|(_, q)| **q)
                .map(|(x, _)| *x)
                .collect(),
        )
    };
    let round = |v: &[f64], k: f64| v.iter().map(|x| (x * k).round() / k).collect::<Vec<_>>();
    println!("window steal share: {:?}", round(steal, 1e3));
    println!("window ops_per_s: {:?}", round(&rates, 1.0));
    println!("window op_p50_us: {:?}", round(&p50s, 1e2));
    println!("window op_p99_us: {:?}", round(&p99s, 1e1));
    println!(
        "quiet windows: {} of {}",
        quiet.iter().filter(|q| **q).count(),
        rec.windows.len()
    );
    println!(
        "error_ratio {} ratio ({} failed / {} attempted)",
        ratio(rec.failed as f64, rec.attempted as f64),
        rec.failed,
        rec.attempted
    );
    println!(
        "op samples {} in {} windows of {window_s} s (fewest {}); whole run: {} ops/s, p50 {} us, p99 {} us",
        whole.len(),
        rec.windows.len(),
        rec.windows.iter().map(Hist::len).min().unwrap_or(0),
        ops_per_s(&phase),
        whole.quantile_us(0.5),
        whole.quantile_us(0.99)
    );
    if args.kind == Kind::Walk {
        println!("fault_p50_us {} us", rec.faults.quantile_us(0.5));
        println!("fault_p99_us {} us", rec.faults.quantile_us(0.99));
        println!("fault samples {}", rec.faults.len());
    }
    let metrics = vec![
        m("ops_per_s", quiet_median(&rates), "1/s"),
        m("op_p50_us", quiet_median(&p50s), "us"),
        m("op_p99_us", quiet_median(&p99s), "us"),
        m("setup_s", median(setups), "s"),
        m("peak_rss_mb", rss_mb, "MB"),
    ];
    Ok((vec![phase], bad, metrics))
}

/// Runs an untraced and a traced world for half of `--seconds` each.
fn per_layer(args: &Args, workers: usize) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let plain = Bench::setup(args.kind, args.seed, workers, None).map_err(|e| e.to_string())?;
    let untraced = plain.measure(args.seed, 1, half);
    let mut bad = plain.check();
    drop(plain);

    let ledger = Ledger::new();
    let bench = Bench::setup(args.kind, args.seed, workers, Some(ledger.clone()))
        .map_err(|e| e.to_string())?;
    let clients0 = bench.world.client_counters();
    let provider0 = bench.world.provider.metrics().snapshot();
    let server0 = ledger.server_totals();
    let traced = bench.measure(args.seed, 1, half);
    let clients = bench.world.client_counters();
    let provider = bench.world.provider.metrics().snapshot();
    let server = ledger.server_totals();
    bad.extend(bench.check());

    let l = &traced.rec.layers;
    let ops = l.ops as f64;
    let per_op_us = |nanos: f64| ratio(nanos, ops) / 1e3;
    let unaccounted = l.op_nanos as f64
        - l.core_nanos as f64
        - l.hop_nanos as f64
        - l.handle_nanos as f64
        - l.store_append_nanos as f64
        - l.store_sync_nanos as f64;
    let metrics = vec![
        m("net.hop_us", per_op_us(l.hop_nanos as f64), "us"),
        m("net.calls_per_op", ratio(l.calls as f64, ops), "count"),
        m("net.casts_per_op", ratio(l.casts as f64, ops), "count"),
        m("net.bytes_per_op", ratio(l.bytes as f64, ops), "B"),
        m(
            "net.frames_per_call",
            ratio(l.reply_frames as f64, l.calls as f64),
            "count",
        ),
        m("rmi.handle_us", per_op_us(l.handle_nanos as f64), "us"),
        m(
            "rmi.busy_ratio",
            ratio(
                (server.0 - server0.0) as f64,
                traced.wall.as_nanos() as f64 * workers as f64,
            ),
            "ratio",
        ),
        m(
            "rmi.retries_per_op",
            ratio((clients.rpc_retries - clients0.rpc_retries) as f64, ops),
            "count",
        ),
        m(
            "rmi.cached_reply_ratio",
            ratio(
                (provider.cached_replies - provider0.cached_replies) as f64,
                (server.1 - server0.1) as f64,
            ),
            "ratio",
        ),
        m("wire.decode_us", per_op_us(l.decode_nanos as f64), "us"),
        m("wire.encode_us", per_op_us(l.encode_nanos as f64), "us"),
        m("core.self_us", per_op_us(l.core_nanos as f64), "us"),
        m(
            "core.faults_per_op",
            ratio((clients.object_faults - clients0.object_faults) as f64, ops),
            "count",
        ),
        m(
            "core.objects_per_round_trip",
            ratio(
                (clients.replicas_created - clients0.replicas_created) as f64,
                (clients.demand_round_trips - clients0.demand_round_trips) as f64,
            ),
            "count",
        ),
        m(
            "core.gc_us",
            per_op_us(traced.rec.layers.gc_nanos as f64),
            "us",
        ),
        m(
            "store.append_us",
            per_op_us(l.store_append_nanos as f64),
            "us",
        ),
        m("store.sync_us", per_op_us(l.store_sync_nanos as f64), "us"),
        m(
            "store.syncs_per_op",
            ratio(l.store_syncs as f64, ops),
            "count",
        ),
        m("store.bytes_per_op", ratio(l.store_bytes as f64, ops), "B"),
        m("unaccounted_us", per_op_us(unaccounted), "us"),
        m(
            "trace_overhead_ratio",
            ratio(ops_per_s(&untraced), ops_per_s(&traced)),
            "ratio",
        ),
    ];
    println!(
        "traced ops {} (untraced {}), traced op mean {} us",
        l.ops,
        untraced.rec.attempted,
        per_op_us(l.op_nanos as f64)
    );
    Ok((vec![untraced, traced], bad, metrics))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <walk|fanin|writeback> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} provider_workers={workers} driving_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.kind.driving_threads()
    );
    println!(
        "substrate: in-process MemTransport worker pool, CostModel::free(), ClockMode::Hybrid, \
         WAL in FileStorage with device sync excluded; times are real (Instant)"
    );
    let run = if args.trace {
        per_layer(&args, workers)
    } else {
        end_to_end(&args, workers)
    };
    let _ = std::fs::remove_dir_all(world::RUN_DIR);
    let (phases, bad, metrics) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut mismatches = bad;
    for p in phases {
        attempted += p.rec.attempted;
        failed += p.rec.failed;
        mismatches.extend(p.rec.mismatches);
    }
    for line in mismatches.iter().take(20) {
        println!("MISMATCH {line}");
    }
    for x in &metrics {
        println!("{} {} {}", x.name, x.value, x.unit);
    }
    let correct = mismatches.is_empty() && attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
