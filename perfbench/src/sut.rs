//! The system under test: boot and populate, the closed-loop clients,
//! and the graceful shutdown with its correctness gates.

use crate::host;
use crate::latency::Recorder;
use crate::workload::{block_data, Op, Spec, Stream};
use ame_server::{PipelinedClient, PipelinedValue, Server, ServerConfig, ServerMode, TenantSpec};
use ame_store::{SecureStore, SessionConfig, StoreError, StoreOp, StoreValue, BLOCK_BYTES};
use ame_telemetry::{Histogram, Snapshot};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Width of the slices the wall-clock metrics are taken over.
pub const SLICE: Duration = Duration::from_secs(1);

pub enum Sut {
    Local(SecureStore),
    Wire {
        server: Server,
        clients: Vec<PipelinedClient>,
    },
}

pub struct Setup {
    pub sut: Sut,
    pub streams: Vec<Stream>,
    pub dir: Option<PathBuf>,
    pub setup_s: f64,
    pub rss_growth: u64,
}

/// What one closed-loop window produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every op, the final drain included.
    pub lat: Recorder,
    /// Latency of the ops completed in each whole [`SLICE`] of the window.
    pub slices: Vec<Recorder>,
    /// Process CPU time spent in each whole slice.
    pub slice_cpu_us: Vec<u64>,
    /// Host steal in each whole slice.
    pub slice_steal: Vec<f64>,
    pub elapsed_s: f64,
    pub first_error: Option<String>,
}

impl Outcome {
    fn new(dur: Duration) -> Self {
        let n = (dur.as_nanos() / SLICE.as_nanos()) as usize;
        Self {
            attempted: 0,
            failed: 0,
            lat: Recorder::default(),
            slices: vec![Recorder::default(); n],
            slice_cpu_us: Vec::new(),
            slice_steal: Vec::new(),
            elapsed_s: 0.0,
            first_error: None,
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lat.merge(&other.lat);
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.merge(b);
        }
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn completed(&self) -> u64 {
        self.lat.count()
    }

    fn completion(&mut self, start: Instant, submitted: Instant) {
        let now = Instant::now();
        let ns = (now - submitted).as_nanos() as u64;
        self.lat.record(ns);
        let slice = ((now - start).as_nanos() / SLICE.as_nanos()) as usize;
        if let Some(rec) = self.slices.get_mut(slice) {
            rec.record(ns);
        }
    }
}

/// Samples process CPU time and host steal at every slice boundary.
fn sample_slices(start: Instant, slices: usize) -> (Vec<u64>, Vec<f64>) {
    let mut samples = Vec::with_capacity(slices + 1);
    for k in 0..=slices {
        let due = start + SLICE * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        samples.push((host::cpu_us(), host::cpu_ticks()));
    }
    samples
        .windows(2)
        .map(|w| (w[1].0 - w[0].0, host::steal_frac(w[0].1, w[1].1)))
        .unzip()
}

/// Checks a store reply against the op that produced it.
pub fn check_store(seed: u64, op: &Op, res: Result<StoreValue, StoreError>) -> Result<(), String> {
    match (op.write, res) {
        (Some(_), Ok(StoreValue::Written)) => Ok(()),
        (None, Ok(StoreValue::Data(d))) if d == block_data(seed, op.block, op.expect) => Ok(()),
        (_, other) => Err(format!("block {} (v{}): {other:?}", op.block, op.expect)),
    }
}

fn check_wire(
    seed: u64,
    op: &Op,
    res: Result<PipelinedValue, ame_server::WireError>,
) -> Result<(), String> {
    match (op.write, res) {
        (Some(_), Ok(PipelinedValue::Written)) => Ok(()),
        (None, Ok(PipelinedValue::Data(d))) if d == block_data(seed, op.block, op.expect) => Ok(()),
        (_, other) => Err(format!("block {} (v{}): {other:?}", op.block, op.expect)),
    }
}

pub fn store_op(seed: u64, op: &Op) -> StoreOp {
    match op.write {
        Some(v) => StoreOp::Write {
            addr: op.addr(),
            data: block_data(seed, op.block, v),
        },
        None => StoreOp::Read { addr: op.addr() },
    }
}

/// Pushes `ops` through one session with a 16-op window per shard,
/// checking every reply.
pub fn run_ops(
    store: &SecureStore,
    seed: u64,
    ops: impl Iterator<Item = Op>,
) -> Result<(), String> {
    let mut session = store.session_with(SessionConfig {
        in_flight_window: 16,
    });
    let mut pending = HashMap::new();
    let check = |pending: &mut HashMap<_, Op>, (ticket, res)| {
        let op = pending.remove(&ticket).expect("reply to a known ticket");
        check_store(seed, &op, res)
    };
    for op in ops {
        loop {
            match session.submit(store_op(seed, &op)) {
                Ok(ticket) => {
                    pending.insert(ticket, op);
                    break;
                }
                Err(StoreError::Overloaded { .. }) => {
                    let done = session.wait_any().expect("ops in flight");
                    check(&mut pending, done)?;
                }
                Err(e) => return Err(format!("block {}: {e}", op.block)),
            }
        }
    }
    session
        .wait_all()
        .into_iter()
        .try_for_each(|done| check(&mut pending, done))
}

/// Version 0 of each of `blocks`: what populating writes.
pub fn populate_ops(blocks: impl Iterator<Item = u64>) -> impl Iterator<Item = Op> {
    blocks.map(|block| Op {
        block,
        write: Some(0),
        expect: 0,
    })
}

pub fn populate_wire(
    client: &mut PipelinedClient,
    seed: u64,
    blocks: impl Iterator<Item = u64>,
) -> Result<(), String> {
    let check = |(_, res): (u64, Result<PipelinedValue, ame_server::WireError>)| match res {
        Ok(PipelinedValue::Written) => Ok(()),
        other => Err(format!("populate over the wire: {other:?}")),
    };
    for block in blocks {
        let data = block_data(seed, block, 0);
        let (_, reaped) = client
            .submit_write_wait(block * BLOCK_BYTES as u64, &data)
            .map_err(|e| format!("populate: {e:?}"))?;
        reaped.into_iter().try_for_each(check)?;
    }
    client
        .drain()
        .map_err(|e| format!("populate: {e:?}"))?
        .into_iter()
        .try_for_each(check)
}

/// A fresh directory `name` under `base` for a persistent workload.
pub fn durable_dir(spec: &Spec, base: &Path, name: &str) -> Option<PathBuf> {
    spec.durable.then(|| {
        let d = base.join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    })
}

/// An in-process store of the workload's shape, persistent when `dir` is set.
pub fn open_store(spec: &Spec, dir: Option<&Path>) -> Result<SecureStore, String> {
    match dir {
        Some(d) => SecureStore::open(d, spec.store_config()).map_err(|e| format!("open: {e}")),
        None => Ok(SecureStore::new(spec.store_config())),
    }
}

pub fn boot_server(spec: &Spec, dir: Option<&Path>) -> std::io::Result<Server> {
    let mut tenant = TenantSpec::new(0, spec.store_config());
    tenant.persist_dir = dir.map(Path::to_path_buf);
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            tenants: vec![tenant],
            mode: ServerMode::Reactor { threads: 1 },
            ..ServerConfig::default()
        },
    )
}

/// Boots the workload's system and populates every block, timing both.
pub fn setup(spec: &Spec, seed: u64, dir: Option<PathBuf>) -> Result<Setup, String> {
    // The op streams are the benchmark's own state: made before the RSS
    // baseline so they do not count as the system's memory.
    let streams: Vec<Stream> = (0..spec.conns)
        .map(|c| Stream::new(spec, seed, c))
        .collect();
    let rss0 = host::rss_bytes();
    let t0 = Instant::now();
    let sut = if spec.wire {
        let server = boot_server(spec, dir.as_deref()).map_err(|e| format!("boot: {e}"))?;
        let mut clients = Vec::with_capacity(spec.conns);
        for _ in 0..spec.conns {
            clients.push(
                PipelinedClient::connect(server.addr(), 0, spec.window as u32)
                    .map_err(|e| format!("connect: {e:?}"))?,
            );
        }
        std::thread::scope(|s| {
            let jobs: Vec<_> = clients
                .iter_mut()
                .zip(&streams)
                .map(|(client, stream)| {
                    s.spawn(move || populate_wire(client, seed, stream.owned()))
                })
                .collect();
            jobs.into_iter()
                .try_for_each(|j| j.join().expect("populate thread panicked"))
        })?;
        Sut::Wire { server, clients }
    } else {
        let store = open_store(spec, dir.as_deref())?;
        for stream in &streams {
            run_ops(&store, seed, populate_ops(stream.owned()))
                .map_err(|e| format!("populate: {e}"))?;
        }
        Sut::Local(store)
    };
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Setup {
        sut,
        streams,
        dir,
        setup_s,
        rss_growth: host::rss_bytes().saturating_sub(rss0),
    })
}

fn session_loop(
    store: &SecureStore,
    stream: &mut Stream,
    seed: u64,
    window: usize,
    dur: Duration,
    start: Instant,
) -> Outcome {
    let mut out = Outcome::new(dur);
    let mut session = store.session_with(SessionConfig {
        in_flight_window: window,
    });
    let mut pending = HashMap::with_capacity(2 * window);
    let deadline = start + dur;
    loop {
        if Instant::now() < deadline {
            while pending.len() < window {
                let op = stream.next_op();
                out.attempted += 1;
                match session.submit(store_op(seed, &op)) {
                    Ok(ticket) => {
                        pending.insert(ticket, (op, Instant::now()));
                    }
                    Err(e) => out.fail(format!("submit: {e}")),
                }
            }
        }
        let Some((ticket, res)) = session.wait_any() else {
            break;
        };
        let (op, submitted) = pending
            .remove(&ticket)
            .expect("completion for a known ticket");
        out.completion(start, submitted);
        if let Err(e) = check_store(seed, &op, res) {
            out.fail(e);
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

fn wire_loop(
    client: &mut PipelinedClient,
    stream: &mut Stream,
    seed: u64,
    window: usize,
    dur: Duration,
    start: Instant,
) -> Outcome {
    let mut out = Outcome::new(dur);
    let window = window.min(client.window());
    let mut pending = HashMap::with_capacity(2 * window);
    let deadline = start + dur;
    loop {
        if Instant::now() < deadline {
            while pending.len() < window {
                let op = stream.next_op();
                out.attempted += 1;
                let sent = match op.write {
                    Some(v) => client.submit_write(op.addr(), &block_data(seed, op.block, v)),
                    None => client.submit_read(op.addr()),
                };
                match sent {
                    Ok(id) => {
                        pending.insert(id, (op, Instant::now()));
                    }
                    Err(e) => out.fail(format!("submit: {e:?}")),
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        match client.recv() {
            Ok((id, res)) => {
                let Some((op, submitted)) = pending.remove(&id) else {
                    out.fail(format!("reply to unknown request {id}"));
                    continue;
                };
                out.completion(start, submitted);
                if let Err(e) = check_wire(seed, &op, res) {
                    out.fail(e);
                }
            }
            Err(e) => {
                // The connection is gone: everything in flight is lost.
                for _ in 0..pending.len() {
                    out.fail(format!("connection: {e:?}"));
                }
                break;
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Runs every client's closed loop for `dur` and merges the results.
pub fn closed_loop(setup: &mut Setup, spec: &Spec, seed: u64, dur: Duration) -> Outcome {
    let mut total = Outcome::new(dur);
    let n = total.slices.len();
    let start = Instant::now();
    let (outs, (cpu, steal)) = std::thread::scope(|s| {
        let sampler = s.spawn(move || sample_slices(start, n));
        let outs: Vec<Outcome> = match &mut setup.sut {
            Sut::Local(store) => setup
                .streams
                .iter_mut()
                .map(|st| session_loop(store, st, seed, spec.window, dur, start))
                .collect(),
            Sut::Wire { clients, .. } => {
                let jobs: Vec<_> = clients
                    .iter_mut()
                    .zip(&mut setup.streams)
                    .map(|(c, st)| s.spawn(move || wire_loop(c, st, seed, spec.window, dur, start)))
                    .collect();
                jobs.into_iter()
                    .map(|j| j.join().expect("client thread panicked"))
                    .collect()
            }
        };
        (outs, sampler.join().expect("sampler thread panicked"))
    });
    for o in outs {
        total.merge(o);
    }
    total.slice_cpu_us = cpu;
    total.slice_steal = steal;
    total
}

/// Store-layer telemetry of the system under test.
pub fn telemetry(sut: &Sut) -> (Snapshot, &'static str) {
    match sut {
        Sut::Local(store) => (store.telemetry(), "store"),
        Sut::Wire { server, .. } => (server.telemetry(), "server/tenant0/store"),
    }
}

/// Sum of a counter over every shard.
pub fn shard_counter(snap: &Snapshot, scope: &str, name: &str) -> u64 {
    (0..crate::workload::SHARDS)
        .map(|s| {
            snap.counter(&format!("{scope}/shard{s}/{name}"))
                .unwrap_or(0)
        })
        .sum()
}

/// A histogram merged over every shard.
pub fn shard_histogram(snap: &Snapshot, scope: &str, name: &str) -> Histogram {
    let mut h = Histogram::new();
    for s in 0..crate::workload::SHARDS {
        if let Some(x) = snap.histogram(&format!("{scope}/shard{s}/{name}")) {
            h.merge(x);
        }
    }
    h
}

pub struct Teardown {
    pub disk_bytes: u64,
    pub reopen_ms: Option<f64>,
}

/// Shuts the system down and applies the gates: every shard re-sealed
/// and, for a persistent tenant, every acknowledged write read back
/// after reopening the directory.
pub fn teardown(setup: Setup, spec: &Spec, seed: u64, reopen: bool) -> Result<Teardown, String> {
    let reports = match setup.sut {
        Sut::Local(store) => vec![store.shutdown()],
        Sut::Wire { server, clients } => {
            for c in clients {
                c.goodbye().map_err(|e| format!("goodbye: {e:?}"))?;
            }
            server.shutdown().into_iter().map(|(_, r)| r).collect()
        }
    };
    if !reports.iter().all(ame_store::ShutdownReport::all_resealed) {
        return Err(format!("shutdown did not re-seal every shard: {reports:?}"));
    }
    let mut td = Teardown {
        disk_bytes: 0,
        reopen_ms: None,
    };
    if let Some(dir) = &setup.dir {
        td.disk_bytes = host::dir_bytes(dir);
        if reopen {
            let t0 = Instant::now();
            let store =
                SecureStore::open(dir, spec.store_config()).map_err(|e| format!("reopen: {e}"))?;
            td.reopen_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
            // Every block must hold its last acknowledged write.
            let reads = setup
                .streams
                .iter()
                .flat_map(Stream::final_versions)
                .map(|(block, v)| Op {
                    block,
                    write: None,
                    expect: v,
                });
            run_ops(&store, seed, reads).map_err(|e| format!("after reopen: {e}"))?;
            if !store.shutdown().all_resealed() {
                return Err("reopened store did not re-seal every shard".into());
            }
        }
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    Ok(td)
}
