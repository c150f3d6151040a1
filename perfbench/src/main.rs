//! The serving-stack benchmark: one closed-loop workload per run, with
//! end-to-end metrics (`--trace 0`) or per-layer metrics from a traced
//! replay (`--trace 1`). See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload cold_read|wire_hot|durable_skew --seed N
//!           --seconds S --trace 0|1 --work-dir DIR [--source-rev REV]
//! ```
//!
//! Human-readable lines start with `#`; the last line is one JSON
//! object. The exit code is 1 when any correctness gate fails.

mod host;
mod latency;
mod sut;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use sut::{shard_counter, shard_histogram, Setup};
use workload::Spec;

/// Set-ups per untraced run; `setup_s` is the median of the quiet ones.
const SETUPS: usize = 7;
/// At least this many set-ups (the least-stolen) count as quiet.
const QUIET_SETUPS: usize = 4;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Working directory of this process (durable tenants' directories).
    work: PathBuf,
    /// Where the span dump of a traced run goes.
    out: PathBuf,
    source_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = None;
    let mut source_rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Spec::by_name(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .map_err(|_| format!("bad seconds {val}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            "--work-dir" => work = Some(PathBuf::from(val)),
            "--source-rev" => source_rev = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let spec: Spec = workload.ok_or("--workload is required")?;
    let out: PathBuf = work.ok_or("--work-dir is required")?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        work: out.join(format!("{}-{}", spec.name, std::process::id())),
        out,
        source_rev,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Correctness-gate failures; any makes the run fail.
    gates: Vec<String>,
}

impl Report {
    fn gate(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            println!("# GATE FAILED: {e}");
            self.gates.push(e);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name, x.value, x.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gates.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The closed-loop window with its gates; prints the report lines that
/// both modes share.
fn measure(args: &Args, setup: &mut Setup, dur: Duration, r: &mut Report) -> (sut::Outcome, u64) {
    let cpu0 = host::cpu_us();
    let ticks0 = host::cpu_ticks();
    let out = sut::closed_loop(setup, &args.spec, args.seed, dur);
    let cpu = host::cpu_us() - cpu0;
    let steal = host::steal_frac(ticks0, host::cpu_ticks());
    r.attempted += out.attempted;
    r.failed += out.failed;
    let beyond = out.lat.beyond(0.99);
    println!(
        "# window {:.2}s: attempted {} completed {} failed {} (failed_frac {}) latency n={} beyond_p99={} cpu_us={} steal_frac={:.4}",
        out.elapsed_s,
        out.attempted,
        out.completed(),
        out.failed,
        ratio(out.failed as f64, out.attempted as f64),
        out.lat.count(),
        beyond,
        cpu,
        steal
    );
    if let Some(e) = &out.first_error {
        println!("# first failure: {e}");
    }
    r.gate(if out.failed == 0 {
        Ok(())
    } else {
        Err(format!("{} of {} ops failed", out.failed, out.attempted))
    });
    r.gate(if beyond >= 10 {
        Ok(())
    } else {
        Err(format!("only {beyond} samples beyond p99"))
    });
    (out, cpu)
}

fn teardown(args: &Args, setup: Setup, r: &mut Report) -> f64 {
    match sut::teardown(setup, &args.spec, args.seed, true) {
        Ok(td) => {
            let disk = td.disk_bytes as f64 / args.spec.protected_bytes() as f64;
            if let Some(ms) = td.reopen_ms {
                println!("# durability: reopened in store.reopen_ms={ms:.3}, every acknowledged write read back");
                println!("# disk_bytes_per_user_byte={disk}");
            }
            disk
        }
        Err(e) => {
            r.gate(Err(e));
            0.0
        }
    }
}

fn untraced(args: &Args, r: &mut Report) {
    let spec = &args.spec;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_steal = Vec::with_capacity(SETUPS);
    let mut rss_growth = 0;
    let mut live = None;
    for k in 0..SETUPS {
        let ticks = host::cpu_ticks();
        let setup = match sut::setup(
            spec,
            args.seed,
            sut::durable_dir(spec, &args.work, &format!("setup{k}")),
        ) {
            Ok(s) => s,
            Err(e) => return r.gate(Err(e)),
        };
        setup_s.push(setup.setup_s);
        setup_steal.push(host::steal_frac(ticks, host::cpu_ticks()));
        if k == 0 {
            rss_growth = setup.rss_growth;
        }
        if k + 1 < SETUPS {
            if let Err(e) = sut::teardown(setup, spec, args.seed, false) {
                return r.gate(Err(e));
            }
        } else {
            live = Some(setup);
        }
    }
    let calm = quiet(&setup_steal, QUIET_SETUPS);
    println!("# setups_s {setup_s:?} steal {setup_steal:.3?} quiet {calm:?}");
    let mut setup = live.expect("last set-up kept");
    let (out, cpu) = measure(args, &mut setup, Duration::from_secs_f64(args.seconds), r);
    teardown(args, setup, r);
    let whole = WallMetrics {
        ops_per_s: ratio(out.completed() as f64, out.elapsed_s),
        p50_us: out.lat.quantile(0.5) as f64 / 1e3,
        p99_us: out.lat.quantile(0.99) as f64 / 1e3,
        cpu_us_per_op: ratio(cpu as f64, out.completed() as f64),
    };
    println!("# whole window: {}", whole.line());
    let wall = slice_metrics(&out, r).unwrap_or(whole);
    println!("# reported:     {}", wall.line());
    r.metrics = vec![
        m(
            "setup_s",
            trace::median(calm.iter().map(|&i| setup_s[i]).collect()),
            "s",
        ),
        m("ops_per_s", wall.ops_per_s, "1/s"),
        m("p50_us", wall.p50_us, "us"),
        m("cpu_us_per_op", wall.cpu_us_per_op, "us"),
        m(
            "mem_bytes_per_user_byte",
            rss_growth as f64 / spec.protected_bytes() as f64,
            "B/B",
        ),
    ];
}

struct WallMetrics {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    cpu_us_per_op: f64,
}

impl WallMetrics {
    fn line(&self) -> String {
        format!(
            "ops_per_s={:.1} p50_us={:.3} p99_us={:.3} cpu_us_per_op={:.3}",
            self.ops_per_s, self.p50_us, self.p99_us, self.cpu_us_per_op
        )
    }
}

/// At least this share of the window's slices (the least-stolen) is quiet.
const QUIET_SHARE: f64 = 0.1;
/// The fewest slices the figures are taken over.
const QUIET_MIN: usize = 3;
/// Steal at or below this is the floor an idle host shows: every slice
/// that quiet counts.
const STEAL_FLOOR: f64 = 0.01;

/// Indices of the quiet samples: every one whose host steal is at the
/// idle floor, or, when fewer than `least` are, the `least` least-stolen
/// (ties included).
fn quiet(steal: &[f64], least: usize) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let limit = sorted[least.min(sorted.len()) - 1].max(STEAL_FLOOR);
    (0..steal.len()).filter(|&i| steal[i] <= limit).collect()
}

/// Wall-clock figures over the quiet slices of the window: every slice
/// after the first (warm-up) whose host steal is at the idle floor, or
/// failing enough of those, the least-stolen tenth (at least
/// [`QUIET_MIN`]). Steal only ever adds time, and on a shared VM it comes
/// and goes, so the slices the hypervisor disturbed least measure the
/// program itself. Slices are chosen by measured steal, never by their
/// own figures. `None` when the window is too short to choose.
fn slice_metrics(out: &sut::Outcome, r: &mut Report) -> Option<WallMetrics> {
    let n = out.slices.len();
    if n <= QUIET_MIN {
        return None;
    }
    for (i, rec) in out.slices.iter().enumerate() {
        println!(
            "# slice {i} ops {} p50_ns {} p99_ns {} cpu_us {} steal {:.3}",
            rec.count(),
            rec.quantile(0.5),
            rec.quantile(0.99),
            out.slice_cpu_us[i],
            out.slice_steal[i]
        );
    }
    let steal = &out.slice_steal;
    let least = (((n - 1) as f64 * QUIET_SHARE).round() as usize).max(QUIET_MIN);
    let quiet: Vec<usize> = quiet(&steal[1..], least)
        .into_iter()
        .map(|i| i + 1)
        .collect();
    let mut lat = latency::Recorder::default();
    let mut cpu = 0;
    for &i in &quiet {
        lat.merge(&out.slices[i]);
        cpu += out.slice_cpu_us[i];
    }
    let quiet_steal = quiet.iter().map(|&i| steal[i]).sum::<f64>() / quiet.len() as f64;
    println!(
        "# quiet slices {quiet:?}: steal_frac {quiet_steal:.4}, latency n={} beyond_p99={}",
        lat.count(),
        lat.beyond(0.99)
    );
    r.gate(if lat.beyond(0.99) >= 10 {
        Ok(())
    } else {
        Err(format!(
            "quiet slices have only {} samples beyond p99",
            lat.beyond(0.99)
        ))
    });
    Some(WallMetrics {
        ops_per_s: lat.count() as f64 / (quiet.len() as f64 * sut::SLICE.as_secs_f64()),
        p50_us: lat.quantile(0.5) as f64 / 1e3,
        p99_us: lat.quantile(0.99) as f64 / 1e3,
        cpu_us_per_op: ratio(cpu as f64, lat.count() as f64),
    })
}

fn traced(args: &Args, r: &mut Report) {
    let spec = &args.spec;
    let mut setup = match sut::setup(
        spec,
        args.seed,
        sut::durable_dir(spec, &args.work, "setup0"),
    ) {
        Ok(s) => s,
        Err(e) => return r.gate(Err(e)),
    };
    let (before, scope) = sut::telemetry(&setup.sut);
    let (out, _) = measure(
        args,
        &mut setup,
        Duration::from_secs_f64(args.seconds / 2.0),
        r,
    );
    let (after, _) = sut::telemetry(&setup.sut);
    let disk = teardown(args, setup, r);

    let delta = |name: &str| {
        (shard_counter(&after, scope, name) - shard_counter(&before, scope, name)) as f64
    };
    let hist = |name: &str| {
        shard_histogram(&after, scope, name).delta(&shard_histogram(&before, scope, name))
    };
    let writes = delta("writes");
    let per_kwrite = |name: &str| ratio(1e3 * delta(name), writes);
    let hits = delta("engine/metadata_cache/hits");
    let misses = delta("engine/metadata_cache/misses");
    let stalls = |snap: &ame_telemetry::Snapshot| {
        snap.counter("server/tenant0/overload_stalls").unwrap_or(0) as f64
    };

    let replay = match trace::replay(
        spec,
        args.seed,
        &args.work,
        Duration::from_secs_f64(args.seconds / 6.0),
    ) {
        Ok(x) => x,
        Err(e) => return r.gate(Err(e)),
    };
    r.attempted += replay.ops;
    r.gate(replay.tracer.check());
    let spans_path = args.out.join(format!("spans-{}.csv", spec.name));
    r.gate(
        replay
            .tracer
            .dump(&spans_path)
            .map_err(|e| format!("write {}: {e}", spans_path.display())),
    );
    let layers = replay.tracer.layer_stats();
    let med = |name: &str| layers.get(name).map_or(0.0, |s| s.median_ns);
    for (name, s) in {
        let mut v: Vec<_> = layers.iter().collect();
        v.sort_by_key(|(n, _)| **n);
        v
    } {
        println!(
            "# span {name:<18} n={:<6} median_ns={:<10.0} self_median_ns={:.0}",
            s.n, s.median_ns, s.self_median_ns
        );
    }
    println!(
        "# spans written to {} ({} spans, {} traced ops per layer)",
        spans_path.display(),
        replay.tracer.spans.len(),
        replay.ops
    );

    r.metrics = vec![
        m(
            "server.rtt_self_us",
            layers.get("server").map_or(0.0, |s| s.self_median_ns) / 1e3,
            "us",
        ),
        m(
            "server.overload_stalls_per_kop",
            ratio(
                1e3 * (stalls(&after) - stalls(&before)),
                out.completed() as f64,
            ),
            "count",
        ),
        m("store.op_us", med("store") / 1e3, "us"),
        m(
            "store.queue_wait_us",
            hist("queue_wait_ns").mean() / 1e3,
            "us",
        ),
        m(
            "store.service_us",
            hist("service_latency_ns").mean() / 1e3,
            "us",
        ),
        m("store.batch_size_mean", hist("batch_size").mean(), "count"),
        m(
            "store.wal_syncs_per_write",
            ratio(delta("wal_syncs"), writes),
            "count",
        ),
        m(
            "store.wal_group_commit_size",
            ratio(delta("wal_records"), delta("wal_syncs")),
            "count",
        ),
        m(
            "store.wal_bytes_per_user_byte",
            ratio(delta("wal_bytes"), writes * 64.0),
            "B/B",
        ),
        m(
            "store.checkpoints_per_kwrite",
            per_kwrite("checkpoints"),
            "count",
        ),
        m("store.disk_bytes_per_user_byte", disk, "B/B"),
        m("engine.read_us", med("engine.read") / 1e3, "us"),
        m("engine.write_us", med("engine.write") / 1e3, "us"),
        m(
            "engine.mac_batch_mean",
            hist("engine/mac_batch_size").mean(),
            "count",
        ),
        m(
            "engine.reencrypted_blocks_per_kwrite",
            per_kwrite("engine/reencrypted_blocks"),
            "count",
        ),
        m("tree.verify_us", med("tree.verify") / 1e3, "us"),
        m("tree.update_us", med("tree.update") / 1e3, "us"),
        m(
            "tree.counter_cache_hit_rate",
            ratio(hits, hits + misses),
            "ratio",
        ),
        m(
            "counters.reencryptions_per_kwrite",
            per_kwrite("engine/counters/reencryptions"),
            "count",
        ),
        m(
            "counters.reencodes_per_kwrite",
            per_kwrite("engine/counters/reencodes"),
            "count",
        ),
        m(
            "counters.resets_per_kwrite",
            per_kwrite("engine/counters/resets"),
            "count",
        ),
        m("crypto.mac_ns", med("crypto.mac"), "ns"),
        m(
            "crypto.mac_batch8_ns_per_tag",
            med("crypto.mac_batch8") / 8.0,
            "ns",
        ),
        m(
            "crypto.keystream_ns_per_block",
            med("crypto.keystream"),
            "ns",
        ),
        m("ecc.sideband_decode_ns", med("ecc.decode"), "ns"),
        m("trace.overhead_frac", replay.overhead_frac, "ratio"),
    ];
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {}", host::provenance(&args.source_rev));
    let mut r = Report::default();
    if args.trace {
        traced(&args, &mut r);
    } else {
        untraced(&args, &mut r);
    }
    for x in &r.metrics {
        if !x.value.is_finite() {
            r.gates.push(format!("metric {} is not finite", x.name));
        }
    }
    let _ = std::fs::remove_dir_all(&args.work);
    println!("{}", r.json());
    if r.gates.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
