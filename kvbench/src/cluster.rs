//! In-process clusters of the shipped kv server, set up the way
//! `omni-kv-server` runs: one `KvServer::run` thread per replica over a
//! loopback `TcpTransport`, a `ClientGateway`, in-memory storage, the
//! binary's 10 ms tick and `shard_config` leader spreading.

use crate::link::{BenchLink, Fabric, Msg};
use kvstore::{shard_config, KvNode, NodeId, ShardedKvNode};
use net::server::{ClientGateway, KvServer};
use net::tcp::{TcpConfig, TcpTransport};
use net::NetworkLink;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub type Link = BenchLink<TcpTransport<Msg>>;
pub type Server = KvServer<Link>;

/// `omni-kv-server`'s default `--tick-ms`.
const TICK: Duration = Duration::from_millis(10);

/// What a workload's cluster looks like.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub replicas: u64,
    pub shards: usize,
    /// Leader-lease length in ticks (`--lease-ticks`; 0 = off).
    pub lease_ticks: u64,
}

impl Shape {
    pub fn nodes(&self) -> Vec<NodeId> {
        (1..=self.replicas).collect()
    }

    /// The leader `shard_config` prefers for each shard.
    pub fn intended_leaders(&self) -> Vec<NodeId> {
        let nodes = self.nodes();
        (0..self.shards).map(|s| nodes[s % nodes.len()]).collect()
    }
}

pub struct Cluster {
    pub shape: Shape,
    pub fabric: Arc<Fabric>,
    pub clients: Vec<(NodeId, SocketAddr)>,
    stop: Arc<AtomicBool>,
    running: Vec<JoinHandle<Server>>,
    parked: Vec<Server>,
}

impl Cluster {
    /// Bind every replica, start the replication transports and wait
    /// until every pair's session is up, so that all replicas join the
    /// first BLE round once the servers start. The servers are built but
    /// not started.
    pub fn build(shape: Shape, traced: bool) -> Result<Cluster, String> {
        let nodes = shape.nodes();
        let mut listeners = HashMap::new();
        let mut addrs = HashMap::new();
        for &pid in &nodes {
            let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            addrs.insert(pid, l.local_addr().map_err(|e| e.to_string())?);
            listeners.insert(pid, l);
        }
        let fabric = Fabric::new(traced);
        let mut transports = Vec::new();
        for &pid in &nodes {
            let l = listeners.remove(&pid).expect("listener bound above");
            let t = TcpTransport::with_listener(pid, l, addrs.clone(), TcpConfig::default())
                .map_err(|e| format!("transport {pid}: {e}"))?;
            transports.push(t);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let peers = shape.replicas - 1;
        while transports
            .iter()
            .any(|t| t.counters().sessions_established < peers)
        {
            if Instant::now() > deadline {
                return Err("replication sessions never all came up".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut parked = Vec::new();
        let mut clients = Vec::new();
        for (t, &pid) in transports.into_iter().zip(&nodes) {
            let mut base = omnipaxos::ServerConfig::with(pid);
            base.lease_ticks = shape.lease_ticks;
            base.lease_epsilon_ticks = (shape.lease_ticks / 10).max(1);
            let node = ShardedKvNode::from_shards(
                (0..shape.shards as u32)
                    .map(|s| KvNode::with_config(shard_config(&base, s, &nodes), nodes.clone()))
                    .collect(),
            );
            let gateway = TcpListener::bind("127.0.0.1:0")
                .and_then(ClientGateway::bind)
                .map_err(|e| format!("gateway {pid}: {e}"))?;
            clients.push((pid, gateway.local_addr()));
            let link = BenchLink::new(t, Arc::clone(&fabric));
            parked.push(KvServer::new_sharded(node, link).with_gateway(gateway));
        }
        Ok(Cluster {
            shape,
            fabric,
            clients,
            stop: Arc::new(AtomicBool::new(false)),
            running: Vec::new(),
            parked,
        })
    }

    /// Start (or restart) one `KvServer::run` thread per replica.
    pub fn start(&mut self) {
        assert!(self.running.is_empty(), "servers already running");
        self.stop = Arc::new(AtomicBool::new(false));
        for server in self.parked.drain(..) {
            let stop = Arc::clone(&self.stop);
            let pid = server.node().pid();
            let h = std::thread::Builder::new()
                .name(format!("kv-server-{pid}"))
                .spawn(move || server.run(TICK, stop))
                .expect("spawn server thread");
            self.running.push(h);
        }
    }

    /// Stop the server threads and take the servers back. Transports and
    /// gateways stay open, so a later [`Cluster::start`] resumes.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.running.drain(..) {
            self.parked.push(h.join().expect("server thread panicked"));
        }
    }

    /// The stopped servers, in pid order.
    pub fn servers(&self) -> &[Server] {
        assert!(self.running.is_empty(), "servers are running");
        &self.parked
    }

    /// Drive the stopped servers by hand until `done` holds or `limit`
    /// passes: lets in-flight decisions reach every replica before the
    /// convergence audit.
    pub fn settle(&mut self, limit: Duration, done: impl Fn(&[Server]) -> bool) {
        assert!(self.running.is_empty(), "servers are running");
        let deadline = Instant::now() + limit;
        let mut last_tick = Instant::now();
        loop {
            if done(&self.parked) || Instant::now() > deadline {
                return;
            }
            let mut work = 0;
            for s in &mut self.parked {
                work += s.pump();
            }
            if last_tick.elapsed() >= TICK {
                last_tick = Instant::now();
                for s in &mut self.parked {
                    s.tick();
                }
            }
            if work == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Every gateway's view of the shard leaders, once they all agree
    /// and every shard has one.
    pub fn placement(&self, limit: Duration) -> Result<Vec<NodeId>, String> {
        let deadline = Instant::now() + limit;
        loop {
            let views: Vec<_> = self
                .clients
                .iter()
                .map(|c| net::fetch_shards(&[*c], Duration::from_millis(500)).ok())
                .collect();
            if let Some(Some(first)) = views.first() {
                if first.len() == self.shape.shards
                    && first.iter().all(|&l| l != 0)
                    && views.iter().all(|v| v.as_ref() == Some(first))
                {
                    return Ok(first.clone());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("leaders never agreed: {views:?}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.running.drain(..) {
            let _ = h.join();
        }
        // Dropping the servers shuts down transports and gateways and
        // joins their threads.
        self.parked.clear();
    }
}
