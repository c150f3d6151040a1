//! Connection-scaling load bench for the `ame-server` wire front-end —
//! the "many users"-shaped benchmark: an in-process server hosts two
//! independently keyed tenants, and closed-loop pipelined clients sweep
//! connections × in-flight window (1, 4 and 16; window 1 is the
//! unpipelined latency row), measuring throughput and client-observed
//! p50/p99 latency. Writes `results/store_server.json`.
//!
//! Usage: `cargo run -p ame-bench --bin store_server --release \
//!     [ops_per_point] [max_connections] [max_window] [tenants]`
//!
//! The CI smoke runs `store_server 512 4 4 2` plus a leg at 256
//! connections, asserting zero errors.

use ame_bench::server_load::{self, ServerLoadConfig};
use ame_bench::{parse_arg, results};

fn main() {
    let mut args = std::env::args().skip(1);
    let defaults = ServerLoadConfig::default();
    let ops_per_point: usize = parse_arg(args.next(), "ops per point", defaults.ops_per_point);
    let max_connections: usize = parse_arg(args.next(), "max connections", 16);
    let max_window: usize = parse_arg(args.next(), "max window", 16);
    let tenants: usize = parse_arg(args.next(), "tenants", defaults.tenants);

    let cfg = ServerLoadConfig {
        tenants,
        ops_per_point,
        ..defaults
    };
    let connections: Vec<usize> = [1usize, 4, 16, 64, 256, 1024]
        .into_iter()
        .filter(|&c| c <= max_connections)
        .collect();
    let windows: Vec<usize> = [1usize, 4, 16]
        .into_iter()
        .filter(|&w| w <= max_window)
        .collect();

    let server = server_load::boot_server(&cfg, max_window).expect("bind");
    println!("{} reactor threads", server.reactor_threads());
    let points = server_load::run_sweep(&server, &cfg, &connections, &windows);

    // Per-tenant serving telemetry: proof the load actually spread
    // across isolated namespaces.
    let snap = server.telemetry();
    for t in 0..tenants {
        let ok = snap
            .counter(&format!("server/tenant{t}/ops_ok"))
            .unwrap_or(0);
        let err = snap
            .counter(&format!("server/tenant{t}/ops_err"))
            .unwrap_or(0);
        println!("tenant{t}: {ok} ops ok, {err} errors");
    }
    println!();

    let reports = server.shutdown();
    for (tenant, report) in &reports {
        assert!(
            report.all_resealed(),
            "tenant {tenant} failed to reseal on shutdown"
        );
    }

    server_load::print_points(&cfg, &points);
    println!();

    let (doc, headline) = server_load::to_json(&cfg, &points);
    results::write_and_summarize("store_server", &headline, &doc);
}
