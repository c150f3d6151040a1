//! The serving loop: a TCP listener, per-tenant stores with quotas and
//! telemetry, and the epoll reactor that serves every connection.
//!
//! # Threading model
//!
//! One accept thread plus a small fixed pool of epoll event-loop threads
//! (see [`crate::reactor`]), no async runtime. The accept thread hands
//! each connection to one loop, round-robin; that loop owns it as a
//! nonblocking state machine for its whole life, and shard workers rouse
//! the loop through per-session eventfd wakeups when completions land.
//! Thread count is constant no matter how many clients connect.
//! Completions stream back as they finish (out of order across shards,
//! FIFO within one — the store's ordering contract travels the wire
//! unchanged). A host without epoll or eventfd cannot serve:
//! [`Server::bind`] fails with [`io::ErrorKind::Unsupported`].
//!
//! # Tenancy
//!
//! Every tenant is an independently keyed [`SecureStore`] (see
//! [`EngineConfig::for_tenant`](ame_engine::EngineConfig::for_tenant)):
//! a client authenticates its namespace in `Hello` and can never name
//! another tenant's blocks, and a poisoned shard in one tenant's store
//! never rejects another tenant's traffic. Per-tenant connection and
//! window quotas bound what one tenant can demand of the process, and
//! each tenant's metrics live under `server/tenant<T>/…`.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] flips a flag, wakes the accept thread and every
//! event loop, and lets every connection drain: buffered requests are
//! answered [`code::SHUTTING_DOWN`](crate::protocol::code::SHUTTING_DOWN),
//! every already-submitted completion is still delivered — no acked
//! response is lost — and each connection ends with a typed
//! shutting-down notice (request id 0). Only then are the stores shut
//! down through their durable checkpoint path.

use crate::protocol::{code, write_frame, DEFAULT_MAX_FRAME};
use ame_store::{SecureStore, ShutdownReport, StoreConfig};
use ame_telemetry::{Snapshot, StatsRegistry};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// One tenant hosted by a [`Server`]: an isolated key namespace with
/// its own store and quotas.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant id — the namespace clients name in `Hello`, and the
    /// `tenant` term of the per-shard key derivation.
    pub id: usize,
    /// Store shape for this tenant. The `tenant` field is overwritten
    /// with `id` at bind time, so two specs sharing a template config
    /// still get disjoint keys.
    pub config: StoreConfig,
    /// Durable root for this tenant's snapshots and logs; `None` for a
    /// volatile in-memory store.
    pub persist_dir: Option<PathBuf>,
    /// Connection quota: further `Hello`s are answered
    /// [`code::QUOTA_EXCEEDED`](crate::protocol::code::QUOTA_EXCEEDED).
    pub max_connections: usize,
    /// Ceiling on the per-shard in-flight window a connection may
    /// request; `Hello` grants `min(requested, max_window)`.
    pub max_window: usize,
}

impl TenantSpec {
    /// A tenant with default quotas (64 connections, window ≤ 64).
    #[must_use]
    pub fn new(id: usize, config: StoreConfig) -> Self {
        Self {
            id,
            config,
            persist_dir: None,
            max_connections: 64,
            max_window: 64,
        }
    }
}

/// How connections are served after `accept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// A fixed pool of epoll event-loop threads; each connection is a
    /// nonblocking state machine. Thread count stays constant no matter
    /// how many clients connect. Requires epoll + eventfd.
    Reactor {
        /// Event-loop thread count (clamped to at least 1).
        threads: usize,
    },
}

impl ServerMode {
    /// The default reactor shape: `min(4, cores)` event-loop threads.
    #[must_use]
    pub fn reactor() -> Self {
        Self::Reactor {
            threads: default_reactor_threads(),
        }
    }
}

/// `min(4, available cores)`: a handful of event loops saturates the
/// store long before core count matters, and a small pool keeps the
/// constant-thread-count claim honest on big machines.
#[must_use]
pub fn default_reactor_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    cores.clamp(1, 4)
}

/// Server-wide knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The hosted tenants. Ids must be unique.
    pub tenants: Vec<TenantSpec>,
    /// Ceiling on the frame length prefix; larger prefixes are hostile
    /// and close the connection.
    pub max_frame: u32,
    /// How often an idle event loop wakes to check the shutdown flag.
    /// Latency of shutdown, not of requests.
    pub poll_interval: Duration,
    /// Event-loop pool shape. Defaults to [`ServerMode::reactor`].
    pub mode: ServerMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tenants: Vec::new(),
            max_frame: DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(50),
            mode: ServerMode::reactor(),
        }
    }
}

/// Per-tenant counters, reported under `server/tenant<T>/…`.
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) quota_rejections: AtomicU64,
    pub(crate) ops_ok: AtomicU64,
    pub(crate) ops_err: AtomicU64,
    pub(crate) bad_frames: AtomicU64,
    pub(crate) duplicate_request_ids: AtomicU64,
    pub(crate) unknown_opcodes: AtomicU64,
    pub(crate) shutdown_rejections: AtomicU64,
    /// Times an event loop paused reading a connection because the
    /// store reported [`ame_store::StoreError::Overloaded`] — backpressure applied
    /// instead of bouncing a valid operation back to the client.
    pub(crate) overload_stalls: AtomicU64,
}

pub(crate) struct Tenant {
    pub(crate) id: usize,
    pub(crate) store: SecureStore,
    pub(crate) connections: AtomicUsize,
    pub(crate) max_connections: usize,
    pub(crate) max_window: usize,
    pub(crate) counters: TenantCounters,
}

/// Server-level counters (events before a connection has a tenant).
#[derive(Debug, Default)]
pub(crate) struct ServerCounters {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) bad_version: AtomicU64,
    pub(crate) unknown_tenant: AtomicU64,
    pub(crate) pre_hello_failures: AtomicU64,
}

pub(crate) struct Shared {
    pub(crate) tenants: Vec<Tenant>,
    pub(crate) counters: ServerCounters,
    pub(crate) shutdown: AtomicBool,
    pub(crate) max_frame: u32,
    pub(crate) poll_interval: Duration,
    pub(crate) reactor: crate::reactor::ReactorPool,
}

impl Shared {
    pub(crate) fn tenant(&self, id: usize) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.id == id)
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaks the listener thread; call `shutdown` for an orderly drain and
/// durable checkpoint.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), boots
    /// every tenant's store, and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and durable-store open failures;
    /// [`io::ErrorKind::Unsupported`] when the host cannot build the
    /// event loops (no epoll or eventfd, or descriptor exhaustion).
    ///
    /// # Panics
    ///
    /// Panics if `config.tenants` is empty or contains duplicate ids.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        assert!(
            !config.tenants.is_empty(),
            "a server needs at least one tenant"
        );
        {
            let mut ids: Vec<usize> = config.tenants.iter().map(|t| t.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), config.tenants.len(), "tenant ids must be unique");
        }
        let ServerMode::Reactor { threads } = config.mode;
        let (pool, seeds) = crate::reactor::prepare(threads.max(1)).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                "the connection reactor needs epoll and eventfd",
            )
        })?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut tenants = Vec::with_capacity(config.tenants.len());
        for spec in config.tenants {
            let mut store_config = spec.config;
            store_config.tenant = spec.id;
            let store = match &spec.persist_dir {
                Some(dir) => SecureStore::open(dir, store_config)?,
                None => SecureStore::new(store_config),
            };
            tenants.push(Tenant {
                id: spec.id,
                store,
                connections: AtomicUsize::new(0),
                max_connections: spec.max_connections,
                max_window: spec.max_window.max(1),
                counters: TenantCounters::default(),
            });
        }
        let shared = Arc::new(Shared {
            tenants,
            counters: ServerCounters::default(),
            shutdown: AtomicBool::new(false),
            max_frame: config.max_frame,
            poll_interval: config.poll_interval,
            reactor: pool,
        });
        for seed in seeds {
            let reactor_shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name("ame-server-reactor".into())
                .spawn(move || crate::reactor::reactor_thread(&reactor_shared, seed))
                .expect("spawn reactor thread");
            shared.reactor.push_handle(handle);
        }
        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("ame-server-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(Self {
            addr: local,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Event-loop thread count.
    #[must_use]
    pub fn reactor_threads(&self) -> usize {
        self.shared.reactor.threads()
    }

    /// Snapshot of the full metric tree: per-tenant store metrics under
    /// `server/tenant<T>/store/…` plus serving counters under
    /// `server/tenant<T>/…` and `server/…`.
    #[must_use]
    pub fn telemetry(&self) -> Snapshot {
        let mut reg = StatsRegistry::new();
        let c = &self.shared.counters;
        reg.set_counter(
            "server/connections_accepted",
            c.connections_accepted.load(Ordering::Relaxed),
        );
        reg.set_counter("server/bad_version", c.bad_version.load(Ordering::Relaxed));
        reg.set_counter(
            "server/unknown_tenant",
            c.unknown_tenant.load(Ordering::Relaxed),
        );
        reg.set_counter(
            "server/pre_hello_failures",
            c.pre_hello_failures.load(Ordering::Relaxed),
        );
        reg.set_gauge("server/reactor_threads", self.reactor_threads() as f64);
        for t in &self.shared.tenants {
            let scope = format!("server/tenant{}", t.id);
            t.store.collect(&mut reg, &format!("{scope}/store"));
            reg.set_gauge(
                &format!("{scope}/connections"),
                t.connections.load(Ordering::Relaxed) as f64,
            );
            let tc = &t.counters;
            for (name, v) in [
                ("connections_accepted", &tc.connections_accepted),
                ("quota_rejections", &tc.quota_rejections),
                ("ops_ok", &tc.ops_ok),
                ("ops_err", &tc.ops_err),
                ("bad_frames", &tc.bad_frames),
                ("duplicate_request_ids", &tc.duplicate_request_ids),
                ("unknown_opcodes", &tc.unknown_opcodes),
                ("shutdown_rejections", &tc.shutdown_rejections),
                ("overload_stalls", &tc.overload_stalls),
            ] {
                reg.set_counter(&format!("{scope}/{name}"), v.load(Ordering::Relaxed));
            }
        }
        reg.snapshot()
    }

    /// Orderly shutdown: stop accepting, drain every connection's
    /// in-flight window (every submitted operation's response is still
    /// delivered), close connections with a typed shutting-down notice,
    /// then run each tenant store's durable checkpoint.
    ///
    /// Returns `(tenant id, report)` per tenant, in spec order.
    ///
    /// # Panics
    ///
    /// Panics if a serving thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> Vec<(usize, ShutdownReport)> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            handle.join().expect("accept thread panicked");
        }
        let pool = &self.shared.reactor;
        pool.wake_all();
        for handle in pool.take_handles() {
            handle.join().expect("reactor thread panicked");
        }
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("serving threads still hold the server state"));
        shared
            .tenants
            .into_iter()
            .map(|t| (t.id, t.store.shutdown()))
            .collect()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client): refuse.
            let _ = write_frame(&mut &stream, code::SHUTTING_DOWN, 0, &[]);
            return;
        }
        shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        shared.reactor.dispatch(stream);
    }
}
