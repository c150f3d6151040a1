//! The connection-scaling load generator behind the `store_server`
//! bench: closed-loop clients against a live `ame-server`, sweeping
//! connections × in-flight window across multiple tenants.
//!
//! Each connection is one [`PipelinedClient`] on its own thread,
//! assigned round-robin to a tenant. A connection keeps its granted
//! window full (submit until the window caps, reap one, submit one), so
//! the offered load per point is `connections × window` outstanding
//! requests and every submitted operation completes — the error count
//! in a healthy run must be zero. Client-observed latency is
//! submit→response per operation, merged across connections into one
//! histogram per point.

use ame_prng::StdRng;
use ame_server::{PipelinedClient, Server, ServerConfig, TenantSpec};
use ame_store::{StoreConfig, BLOCK_BYTES};
use ame_telemetry::{Histogram, Json};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Shape of the served stores and the per-point workload.
#[derive(Debug, Clone)]
pub struct ServerLoadConfig {
    /// Hosted tenants; connections round-robin across them.
    pub tenants: usize,
    /// Shards per tenant store.
    pub shards: usize,
    /// Bytes per shard.
    pub shard_bytes: u64,
    /// Blocks of each tenant's address space the workload touches.
    pub footprint_blocks: u64,
    /// Total operations per sweep point (split across connections).
    pub ops_per_point: usize,
    /// Fraction of reads in the mix (the rest are writes).
    pub read_fraction: f64,
}

impl Default for ServerLoadConfig {
    fn default() -> Self {
        Self {
            tenants: 2,
            shards: 4,
            shard_bytes: 1 << 20,
            footprint_blocks: 4096,
            ops_per_point: 8192,
            read_fraction: 0.5,
        }
    }
}

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct ServerPoint {
    /// Event-loop threads serving the point.
    pub reactor_threads: usize,
    /// Concurrent connections driving this point.
    pub connections: usize,
    /// Requested (and, quotas permitting, granted) in-flight window.
    pub window: usize,
    /// Operations completed.
    pub ops: u64,
    /// Operations that returned any wire error.
    pub errors: u64,
    /// Wall-clock seconds for the point.
    pub elapsed_s: f64,
    /// Completed operations per second.
    pub throughput: f64,
    /// Client-observed submit→response latency, nanoseconds.
    pub latency: Histogram,
}

/// Boots an in-process server suitable for the sweep: `cfg.tenants`
/// volatile tenants on an ephemeral loopback port, each granting
/// windows up to `max_window`.
///
/// # Errors
///
/// Propagates bind failures.
pub fn boot_server(cfg: &ServerLoadConfig, max_window: usize) -> std::io::Result<Server> {
    let store = StoreConfig {
        shards: cfg.shards,
        shard_bytes: cfg.shard_bytes,
        ..StoreConfig::default()
    };
    let tenants = (0..cfg.tenants)
        .map(|id| {
            let mut spec = TenantSpec::new(id, store.clone());
            spec.max_window = max_window;
            spec.max_connections = 2048;
            spec
        })
        .collect();
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            tenants,
            ..ServerConfig::default()
        },
    )
}

/// Drives one (connections, window) point against a running server.
///
/// # Panics
///
/// Panics if a client cannot connect or the transport fails mid-run —
/// a load bench against a local server treats those as harness bugs,
/// not measurements.
#[must_use]
pub fn run_point(
    server: &Server,
    cfg: &ServerLoadConfig,
    connections: usize,
    window: usize,
) -> ServerPoint {
    let addr = server.addr();
    let ops_per_conn = cfg.ops_per_point.div_ceil(connections);
    let started = Instant::now();
    let results: Vec<(u64, u64, Histogram)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| s.spawn(move || drive_connection(addr, cfg, conn, window, ops_per_conn)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut ops = 0;
    let mut errors = 0;
    let mut latency = Histogram::new();
    for (o, e, h) in &results {
        ops += o;
        errors += e;
        latency.merge(h);
    }
    ServerPoint {
        reactor_threads: server.reactor_threads(),
        connections,
        window,
        ops,
        errors,
        elapsed_s,
        throughput: ops as f64 / elapsed_s.max(1e-9),
        latency,
    }
}

/// One closed-loop connection: keep the window full via the blocking
/// `submit_*_wait` variants (no busy-retry on a full window — the
/// client parks in `recv` until a slot frees), measure every
/// submit→response round trip.
fn drive_connection(
    addr: SocketAddr,
    cfg: &ServerLoadConfig,
    conn: usize,
    window: usize,
    ops: usize,
) -> (u64, u64, Histogram) {
    let tenant = (conn % cfg.tenants) as u32;
    let mut client =
        PipelinedClient::connect(addr, tenant, window as u32).expect("bench client connect");
    let mut rng = StdRng::seed_from_u64(0x5e4e * (conn as u64 + 1));
    let mut submitted_at: HashMap<u64, Instant> = HashMap::new();
    let mut latency = Histogram::new();
    let mut completed = 0u64;
    let mut errors = 0u64;

    fn absorb(
        reaped: Vec<ame_server::PipelinedResponse>,
        submitted_at: &mut HashMap<u64, Instant>,
        latency: &mut Histogram,
        completed: &mut u64,
        errors: &mut u64,
    ) {
        for (id, outcome) in reaped {
            let t0 = submitted_at.remove(&id).expect("response for unknown id");
            latency.record(t0.elapsed().as_nanos() as u64);
            *completed += 1;
            if outcome.is_err() {
                *errors += 1;
            }
        }
    }

    for _ in 0..ops {
        let addr64 = rng.gen_range(0..cfg.footprint_blocks) * BLOCK_BYTES as u64;
        let now = Instant::now();
        let (id, reaped) = if rng.gen_bool(cfg.read_fraction) {
            client.submit_read_wait(addr64)
        } else {
            let fill = (addr64 >> 6) as u8 ^ conn as u8;
            client.submit_write_wait(addr64, &[fill; BLOCK_BYTES])
        }
        .expect("bench submit");
        submitted_at.insert(id, now);
        absorb(
            reaped,
            &mut submitted_at,
            &mut latency,
            &mut completed,
            &mut errors,
        );
    }
    let tail = client.drain().expect("bench drain");
    absorb(
        tail,
        &mut submitted_at,
        &mut latency,
        &mut completed,
        &mut errors,
    );
    client.goodbye().expect("bench goodbye");
    (completed, errors, latency)
}

/// Runs the full sweep against one server instance.
#[must_use]
pub fn run_sweep(
    server: &Server,
    cfg: &ServerLoadConfig,
    connections: &[usize],
    windows: &[usize],
) -> Vec<ServerPoint> {
    let mut points = Vec::new();
    for &window in windows {
        for &conns in connections {
            points.push(run_point(server, cfg, conns, window));
        }
    }
    points
}

/// Human-readable table of the sweep.
pub fn print_points(cfg: &ServerLoadConfig, points: &[ServerPoint]) {
    println!(
        "store_server: {} tenants x {} shards, {} ops/point, {:.0}% reads",
        cfg.tenants,
        cfg.shards,
        cfg.ops_per_point,
        cfg.read_fraction * 100.0
    );
    println!(
        "{:>6} {:>7} {:>9} {:>7} {:>12} {:>9} {:>9} {:>9}",
        "conns", "window", "ops", "errors", "ops/s", "p50 us", "p99 us", "mean us"
    );
    for p in points {
        println!(
            "{:>6} {:>7} {:>9} {:>7} {:>12.0} {:>9.1} {:>9.1} {:>9.1}",
            p.connections,
            p.window,
            p.ops,
            p.errors,
            p.throughput,
            p.latency.quantile(0.50) as f64 / 1e3,
            p.latency.quantile(0.99) as f64 / 1e3,
            p.latency.mean() / 1e3,
        );
    }
}

/// The sweep as the `results/store_server.json` document, plus a
/// headline string for the summary line.
#[must_use]
pub fn to_json(cfg: &ServerLoadConfig, points: &[ServerPoint]) -> (Json, String) {
    let mut params = Json::object();
    params.push("tenants", Json::U64(cfg.tenants as u64));
    params.push("shards", Json::U64(cfg.shards as u64));
    params.push("shard_bytes", Json::U64(cfg.shard_bytes));
    params.push("footprint_blocks", Json::U64(cfg.footprint_blocks));
    params.push("ops_per_point", Json::U64(cfg.ops_per_point as u64));
    params.push("read_fraction", Json::F64(cfg.read_fraction));
    // Same provenance record every store-side experiment carries: which
    // crypto tier served the run, on what silicon, with what placement
    // (boot_server leaves the store default).
    params.push("placement", StoreConfig::default().placement.name());
    params.push("crypto_backend", ame_crypto::backend::active().name());
    params.push(
        "cpu_features",
        ame_crypto::backend::host_features().as_str(),
    );

    let mut rows = Vec::new();
    for p in points {
        let mut row = Json::object();
        row.push("reactor_threads", Json::U64(p.reactor_threads as u64));
        row.push("connections", Json::U64(p.connections as u64));
        row.push("window", Json::U64(p.window as u64));
        row.push("tenants", Json::U64(cfg.tenants as u64));
        row.push("ops", Json::U64(p.ops));
        row.push("errors", Json::U64(p.errors));
        row.push("elapsed_s", Json::F64(p.elapsed_s));
        row.push("throughput_ops_s", Json::F64(p.throughput));
        row.push("p50_us", Json::F64(p.latency.quantile(0.50) as f64 / 1e3));
        row.push("p99_us", Json::F64(p.latency.quantile(0.99) as f64 / 1e3));
        row.push("mean_us", Json::F64(p.latency.mean() / 1e3));
        rows.push(row);
    }

    let headline = points
        .iter()
        .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
        .map(|p| {
            format!(
                "peak {:.0} ops/s @ {} conns w{}",
                p.throughput, p.connections, p.window
            )
        })
        .unwrap_or_else(|| "no points".into());
    (
        crate::results::envelope("store_server", params, Json::Arr(rows)),
        headline,
    )
}
