//! The three workloads: their shape, the seeded op streams, and the
//! expected contents every read is checked against.

use ame_bench::store_load::Zipf;
use ame_engine::EngineConfig;
use ame_prng::StdRng;
use ame_store::{StoreConfig, BLOCK_BYTES};

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Blocks the workload touches; also the store's capacity.
    pub blocks: u64,
    pub read_frac: f64,
    /// Zipf skew, or `None` for uniform keys.
    pub theta: Option<f64>,
    /// Closed-loop clients (in-process sessions or wire connections).
    pub conns: usize,
    /// Operations each client keeps in flight.
    pub window: usize,
    /// Served by a loopback `ame-server` rather than in-process.
    pub wire: bool,
    /// The tenant persists (write-intent log plus snapshots).
    pub durable: bool,
}

pub const SHARDS: usize = 2;
pub const TREE_LEVELS: usize = 6;
pub const CACHE_BLOCKS_PER_SHARD: usize = 64;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "cold_read",
        blocks: 64 * 1024,
        read_frac: 1.0,
        theta: None,
        conns: 1,
        window: 16,
        wire: false,
        durable: false,
    },
    Spec {
        name: "wire_hot",
        blocks: 4 * 1024,
        read_frac: 0.9,
        theta: None,
        conns: 2,
        window: 16,
        wire: true,
        durable: false,
    },
    Spec {
        name: "durable_skew",
        blocks: 16 * 1024,
        read_frac: 0.2,
        theta: Some(0.99),
        conns: 2,
        window: 16,
        wire: true,
        durable: true,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn protected_bytes(&self) -> u64 {
        self.blocks * BLOCK_BYTES as u64
    }

    pub fn engine_config() -> EngineConfig {
        EngineConfig {
            tree_levels: TREE_LEVELS,
            counter_cache_blocks: CACHE_BLOCKS_PER_SHARD,
            ..EngineConfig::default()
        }
    }

    pub fn store_config(&self) -> StoreConfig {
        StoreConfig {
            shards: SHARDS,
            shard_bytes: self.protected_bytes() / SHARDS as u64,
            engine: Self::engine_config(),
            ..StoreConfig::default()
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub block: u64,
    /// `Some(version)` for a write of `block_data(block, version)`.
    pub write: Option<u32>,
    /// For a read: the version the block must hold.
    pub expect: u32,
}

impl Op {
    pub fn addr(&self) -> u64 {
        self.block * BLOCK_BYTES as u64
    }
}

/// The contents of `block` after its `version`-th write (version 0 is
/// the populate write).
pub fn block_data(seed: u64, block: u64, version: u32) -> [u8; BLOCK_BYTES] {
    let mut z = seed ^ block.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(version) << 40);
    let mut out = [0u8; BLOCK_BYTES];
    for chunk in out.chunks_exact_mut(8) {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        chunk.copy_from_slice(&(x ^ (x >> 31)).to_le_bytes());
    }
    out
}

/// One client's op stream over its key partition
/// (`block % conns == conn`), with the version each of its blocks holds.
pub struct Stream {
    rng: StdRng,
    zipf: Option<Zipf>,
    read_frac: f64,
    conns: u64,
    conn: u64,
    versions: Vec<u32>,
}

impl Stream {
    pub fn new(spec: &Spec, seed: u64, conn: usize) -> Self {
        let per_conn = spec.blocks / spec.conns as u64;
        Self {
            rng: StdRng::seed_from_u64(
                seed ^ (conn as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f),
            ),
            zipf: spec.theta.map(|t| Zipf::new(per_conn, t)),
            read_frac: spec.read_frac,
            conns: spec.conns as u64,
            conn: conn as u64,
            versions: vec![0; per_conn as usize],
        }
    }

    /// The blocks this client owns, for populating.
    pub fn owned(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.versions.len() as u64).map(|i| i * self.conns + self.conn)
    }

    pub fn next_op(&mut self) -> Op {
        let is_read = self.rng.next_f64() < self.read_frac;
        let idx = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.versions.len() as u64),
        };
        let block = idx * self.conns + self.conn;
        let v = &mut self.versions[idx as usize];
        if is_read {
            Op {
                block,
                write: None,
                expect: *v,
            }
        } else {
            *v += 1;
            Op {
                block,
                write: Some(*v),
                expect: *v,
            }
        }
    }

    /// The version every owned block holds once all submitted writes
    /// are acknowledged.
    pub fn final_versions(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.owned().zip(self.versions.iter().copied())
    }
}

/// All clients' streams interleaved round-robin: the single op sequence
/// the traced replays feed to each layer, one op at a time.
pub struct Merged {
    streams: Vec<Stream>,
    next: usize,
}

impl Merged {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        Self {
            streams: (0..spec.conns)
                .map(|c| Stream::new(spec, seed, c))
                .collect(),
            next: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let op = self.streams[self.next].next_op();
        self.next = (self.next + 1) % self.streams.len();
        op
    }
}
