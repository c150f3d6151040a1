//! The traced run: the workload's op stream replayed one op at a time
//! into each layer's public entry points, with a span around every call.
//!
//! Nothing inside the program is instrumented. Each layer gets its own
//! replay over its own copy of the workload's system (server, in-process
//! store, bare engines), all fed the same ops in the same order, so op
//! `i` has one span per layer and the span one layer up is its parent.
//! Because the replays are separate, a span's self time is its duration
//! minus its children's durations, not an interval subtraction.

use crate::sut::{self, check_store};
use crate::workload::{block_data, Merged, Op, Spec, SHARDS};
use ame_crypto::MemoryCipher;
use ame_ecc::{DecodeOutcome, MacSideband};
use ame_engine::MemoryEncryptionEngine;
use ame_server::{Client, PipelinedClient};
use ame_store::{SessionConfig, BLOCK_BYTES};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Ops replayed untraced before the traced ones; their per-op time is
/// the baseline the tracing overhead is measured against.
const WARMUP: u64 = 1000;
/// Cap on traced ops per layer, which bounds span memory.
const MAX_TRACED: u64 = 20_000;
/// Op ids of traced populate writes start here, clear of stream ops.
const POPULATE_OP: u64 = 1 << 40;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Span id of each layer's call for op `i`, by layer name.
    by_op: HashMap<(&'static str, u64), u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            by_op: HashMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Times `f` as span `name` of op `op`, under the op's span of layer
    /// `parent_layer` if that layer traced the op.
    fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent_layer: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let parent = parent_layer.and_then(|l| self.by_op.get(&(l, op)).copied());
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        });
        self.by_op.insert((name, op), id);
        out
    }

    /// Writes the spans as CSV: `id,parent,name,op,start_ns,end_ns`.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,op,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{id},{parent},{},{},{},{}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    /// Checks that every parent exists, precedes its child and belongs
    /// to the same op, and that each layer's median self time is ≥ 0.
    pub fn check(&self) -> Result<(), String> {
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let parent = self
                    .spans
                    .get(p as usize)
                    .ok_or_else(|| format!("span {id} names missing parent {p}"))?;
                if p as usize >= id || parent.op != s.op {
                    return Err(format!("span {id} has a parent {p} of another op"));
                }
            }
            if s.end_ns < s.start_ns {
                return Err(format!("span {id} ends before it starts"));
            }
        }
        for (name, stats) in self.layer_stats() {
            if stats.self_median_ns < 0.0 {
                return Err(format!(
                    "layer {name} has negative median self time {}",
                    stats.self_median_ns
                ));
            }
        }
        Ok(())
    }

    /// Per span name: median duration and median self time, over spans
    /// whose op ids are stream ops (or populate ops when the stream has
    /// none of that name).
    pub fn layer_stats(&self) -> HashMap<&'static str, LayerStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
                has_child[p as usize] = true;
            }
        }
        let parents: HashSet<&'static str> = self
            .spans
            .iter()
            .filter_map(|s| s.parent.map(|p| self.spans[p as usize].name))
            .collect();
        // Durations and self times by (name, is populate op).
        let mut groups: HashMap<(&'static str, bool), [Vec<f64>; 2]> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let [dur, own] = groups.entry((s.name, s.op >= POPULATE_OP)).or_default();
            dur.push(s.dur_ns() as f64);
            // Self time is only defined where the layer below traced the
            // op too; a leaf span is all self.
            if has_child[i] || !parents.contains(s.name) {
                own.push(s.dur_ns() as f64 - child_ns[i] as f64);
            }
        }
        let names: HashSet<&'static str> = groups.keys().map(|k| k.0).collect();
        names
            .into_iter()
            .map(|name| {
                let [dur, own] = groups
                    .remove(&(name, false))
                    .or_else(|| groups.remove(&(name, true)))
                    .expect("every name has a group");
                let stats = LayerStats {
                    n: dur.len(),
                    median_ns: median(dur),
                    self_median_ns: median(own),
                };
                (name, stats)
            })
            .collect()
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStats {
    pub n: usize,
    pub median_ns: f64,
    pub self_median_ns: f64,
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// What the replays measured besides spans.
pub struct Replay {
    pub tracer: Tracer,
    /// Traced per-op time over untraced per-op time, minus one, for the
    /// top (server) layer.
    pub overhead_frac: f64,
    pub ops: u64,
}

/// Runs the server, store and engine replays, each for at most
/// `budget`, over the first ops of the workload's merged stream.
pub fn replay(spec: &Spec, seed: u64, work: &Path, budget: Duration) -> Result<Replay, String> {
    let mut tracer = Tracer::new();
    let (n, overhead_frac) = replay_server(spec, seed, work, budget, &mut tracer)?;
    let n = replay_store(spec, seed, work, budget, n, &mut tracer)?;
    replay_engine(spec, seed, budget, n, &mut tracer)?;
    Ok(Replay {
        tracer,
        overhead_frac,
        ops: n,
    })
}

fn wire_op(client: &mut Client, seed: u64, op: &Op) -> Result<(), String> {
    match op.write {
        Some(v) => client.write(op.addr(), &block_data(seed, op.block, v)),
        None => client.read(op.addr()).and_then(|d| {
            if d == block_data(seed, op.block, op.expect) {
                Ok(())
            } else {
                Err(ame_server::ClientError::Protocol(
                    "read returned the wrong data",
                ))
            }
        }),
    }
    .map_err(|e| format!("server replay, block {}: {e}", op.block))
}

/// Returns the number of ops traced (after the warm-up) and the tracing
/// overhead.
fn replay_server(
    spec: &Spec,
    seed: u64,
    work: &Path,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<(u64, f64), String> {
    let dir = sut::durable_dir(spec, work, "replay-server");
    let server = sut::boot_server(spec, dir.as_deref()).map_err(|e| format!("boot: {e}"))?;
    let mut loader =
        PipelinedClient::connect(server.addr(), 0, 16).map_err(|e| format!("connect: {e}"))?;
    sut::populate_wire(&mut loader, seed, 0..spec.blocks)?;
    loader.goodbye().map_err(|e| format!("populate: {e}"))?;
    let mut client = Client::connect(server.addr(), 0).map_err(|e| format!("connect: {e}"))?;
    let mut stream = Merged::new(spec, seed);
    let t0 = Instant::now();
    for _ in 0..WARMUP {
        wire_op(&mut client, seed, &stream.next_op())?;
    }
    let untraced_per_op = t0.elapsed().as_secs_f64() / WARMUP as f64;
    let t1 = Instant::now();
    let deadline = t1 + budget;
    let mut n = 0;
    while n < MAX_TRACED && Instant::now() < deadline {
        let op = stream.next_op();
        let id = WARMUP + n;
        tracer.span("server", id, None, || wire_op(&mut client, seed, &op))?;
        n += 1;
    }
    let traced_per_op = t1.elapsed().as_secs_f64() / n as f64;
    client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
    let reports = server.shutdown();
    if !reports.iter().all(|(_, r)| r.all_resealed()) {
        return Err("server replay: shutdown did not re-seal every shard".into());
    }
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok((n, traced_per_op / untraced_per_op - 1.0))
}

fn replay_store(
    spec: &Spec,
    seed: u64,
    work: &Path,
    budget: Duration,
    max: u64,
    tracer: &mut Tracer,
) -> Result<u64, String> {
    let dir = sut::durable_dir(spec, work, "replay-store");
    let store = sut::open_store(spec, dir.as_deref())?;
    sut::run_ops(&store, seed, sut::populate_ops(0..spec.blocks))
        .map_err(|e| format!("populate: {e}"))?;
    let mut n = 0;
    {
        let mut session = store.session_with(SessionConfig {
            in_flight_window: 1,
        });
        let mut stream = Merged::new(spec, seed);
        let mut one = |op: &Op| {
            let res = session
                .submit(sut::store_op(seed, op))
                .and_then(|t| session.wait(t));
            check_store(seed, op, res).map_err(|e| format!("store replay: {e}"))
        };
        for _ in 0..WARMUP {
            one(&stream.next_op())?;
        }
        let deadline = Instant::now() + budget;
        while n < max && Instant::now() < deadline {
            let op = stream.next_op();
            tracer.span("store", WARMUP + n, Some("server"), || one(&op))?;
            n += 1;
        }
    }
    if !store.shutdown().all_resealed() {
        return Err("store replay: shutdown did not re-seal every shard".into());
    }
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(n)
}

/// One shard's engine plus a cipher keyed like it, so the crypto calls
/// reproduce the engine's own tags.
struct Shard {
    engine: MemoryEncryptionEngine,
    cipher: MemoryCipher,
}

fn replay_engine(
    spec: &Spec,
    seed: u64,
    budget: Duration,
    max: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let base = Spec::engine_config();
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|s| {
            let cfg = base.for_tenant(0, s);
            Shard {
                engine: MemoryEncryptionEngine::new(cfg),
                cipher: MemoryCipher::from_seed(cfg.seed),
            }
        })
        .collect();
    // Populate; the last writes are traced, so a read-only stream still
    // yields write-path spans.
    let traced_from = spec.blocks.saturating_sub(MAX_TRACED.min(max.max(1)));
    for op in sut::populate_ops(0..spec.blocks) {
        if op.block >= traced_from {
            engine_op(&mut shards, seed, POPULATE_OP + op.block, &op, None, tracer)?;
        } else {
            apply(&mut shards, seed, &op)?;
        }
    }
    let mut stream = Merged::new(spec, seed);
    for _ in 0..WARMUP {
        apply(&mut shards, seed, &stream.next_op())?;
    }
    let deadline = Instant::now() + budget;
    let mut n = 0;
    while n < max && Instant::now() < deadline {
        let op = stream.next_op();
        engine_op(&mut shards, seed, WARMUP + n, &op, Some("store"), tracer)?;
        n += 1;
    }
    Ok(())
}

fn local_addr(block: u64) -> u64 {
    (block / SHARDS as u64) * BLOCK_BYTES as u64
}

/// One op into its shard's engine, checking what a read returns.
fn apply(shards: &mut [Shard], seed: u64, op: &Op) -> Result<(), String> {
    let engine = &mut shards[(op.block % SHARDS as u64) as usize].engine;
    let addr = local_addr(op.block);
    match op.write {
        Some(v) => engine.write_block(addr, &block_data(seed, op.block, v)),
        None => {
            let got = engine
                .read_block(addr)
                .map_err(|e| format!("engine replay, block {}: {e:?}", op.block))?;
            if got != block_data(seed, op.block, op.expect) {
                return Err(format!(
                    "engine replay: block {} has the wrong data",
                    op.block
                ));
            }
        }
    }
    Ok(())
}

/// One op into the engine, then the tree, crypto and ECC calls that op
/// made inside it, each as a child span of the engine span.
fn engine_op(
    shards: &mut [Shard],
    seed: u64,
    id: u64,
    op: &Op,
    parent: Option<&'static str>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let idx = (op.block % SHARDS as u64) as usize;
    let misses = |e: &MemoryEncryptionEngine| e.counter_cache_stats().map_or(0, |c| c.misses);
    let before = misses(&shards[idx].engine);
    let name = if op.write.is_some() {
        "engine.write"
    } else {
        "engine.read"
    };
    tracer.span(name, id, parent, || apply(shards, seed, op))?;
    let sh = &mut shards[idx];
    let addr = local_addr(op.block);
    let meta = (addr / BLOCK_BYTES as u64) / sh.engine.blocks_per_metadata_block() as u64;
    if op.write.is_some() {
        // Rewriting the current image re-MACs the whole path, as the
        // engine's own counter update does, without changing state.
        let image = sh
            .engine
            .tree_mut()
            .read_counter_block(meta)
            .map_err(|e| format!("tree: {e:?}"))?;
        tracer.span("tree.update", id, Some(name), || {
            sh.engine.tree_mut().write_counter_block(meta, image)
        });
    } else {
        // Every read times one verified walk, so the figure exists even
        // where the counter cache absorbs them all; only the walks the
        // engine's read really made (a cache miss) are its children.
        let walked = misses(&sh.engine) > before;
        tracer
            .span("tree.verify", id, walked.then_some(name), || {
                sh.engine.tree_mut().read_counter_block(meta)
            })
            .map_err(|e| format!("tree: {e:?}"))?;
    }
    let snap = sh.engine.snapshot_block(addr);
    let ct = snap.stored_data();
    let counter = sh.engine.counter_of(addr);
    let cipher = &sh.cipher;
    let tag = tracer.span("crypto.mac", id, Some(name), || {
        cipher.mac_block(addr, counter, &ct)
    });
    tracer.span("crypto.keystream", id, Some(name), || {
        black_box(cipher.keystream_batch(black_box(&[(addr, counter)])))
    });
    let sideband = MacSideband::from_bytes(snap.stored_sideband());
    if op.write.is_none() {
        let decoded = tracer.span("ecc.decode", id, Some(name), || sideband.recover_tag());
        if !matches!(decoded, DecodeOutcome::Clean { word } if word == tag) {
            return Err(format!(
                "block {}: side-band tag {decoded:?} is not the MAC {tag:#x}",
                op.block
            ));
        }
    }
    if id.is_multiple_of(8) {
        let nonces = [(addr, counter); 8];
        let blocks = [ct; 8];
        tracer.span("crypto.mac_batch8", id, None, || {
            black_box(cipher.mac_batch(black_box(&nonces), &blocks))
        });
    }
    Ok(())
}
