//! The traced replay: the workload's seeded op stream driven through
//! in-memory `ShardedKvNode`s on one thread, with no sockets and no
//! wall-clock timers, so every count it reports repeats exactly.
//!
//! Each message goes through the `omnipaxos::wire` codec as the TCP
//! transport would send it. The replay times each call into the layers
//! below `KvServer`: `submit_batch`, `handle`, `outgoing`,
//! `take_results` and `tick` (`kvstore::shard`, `omnipaxos::service`,
//! `sequence_paxos`), the codec, and `KvStateMachine::apply` over the
//! decided log (`kvstore::store`). Ops are admitted in 1 ms windows of
//! the workload's rate, the way a server pump admits what arrived since
//! the last cycle, and the protocol tick runs every 10 windows, as the
//! 10 ms server tick would.

use crate::link::Msg;
use crate::run::Metric;
use crate::workload::{
    account_name, key_name, Kind, Op, Plan, Workload, ACCOUNTS, KEYS, OPENING, PREFILL,
};
use kvstore::{
    shard_config, shard_of_key, KvCommand, KvNode, KvOp, KvStateMachine, ReadMode, ShardedKvNode,
    TxnCoordinator, TxnSpec,
};
use omnipaxos::{BatchCache, OmniMessage, PaxosMsg, ServerConfig, ServiceMsg, Wire};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

const CLIENT: u64 = 0x7E91;
const READ_TOKEN: u64 = 1 << 63;
const TXN_TOKEN: u64 = 1 << 62;
/// Windows between protocol ticks (10 ms of 1 ms windows).
const WINDOWS_PER_TICK: usize = 10;

#[derive(Default)]
struct Tally {
    submit: u64,
    handle: u64,
    outgoing: u64,
    results: u64,
    tick: u64,
    encode: u64,
    decode: u64,
    msgs: u64,
    bytes: u64,
    accepts: u64,
    accept_entries: u64,
}

fn timed<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_nanos() as u64;
    r
}

fn accept_entries(msg: &Msg) -> Option<usize> {
    match msg {
        ServiceMsg::Group { msg, .. } => accept_entries(msg),
        ServiceMsg::Omni {
            msg: OmniMessage::Paxos(m),
            ..
        } => match &m.msg {
            PaxosMsg::AcceptDecide(a) => Some(a.entries.len()),
            _ => None,
        },
        _ => None,
    }
}

struct Replay {
    nodes: Vec<ShardedKvNode>,
    caches: Vec<BatchCache>,
    coord: TxnCoordinator,
    /// Index into `nodes` of the transaction coordinator.
    coord_at: usize,
    t: Tally,
    /// `(shard, seq)` of generated ops whose result reached their leader.
    done: BTreeSet<(u32, u64)>,
    leaders: Vec<usize>,
}

impl Replay {
    /// Move messages between nodes until none are left.
    fn exchange(&mut self) {
        let mut buf = Vec::new();
        loop {
            let mut queue: Vec<(u64, u64, Vec<u8>)> = Vec::new();
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let out = timed(&mut self.t.outgoing, || node.outgoing());
                let cache = &mut self.caches[i];
                cache.reset();
                for (to, msg) in out {
                    if let Some(n) = accept_entries(&msg) {
                        self.t.accepts += 1;
                        self.t.accept_entries += n as u64;
                    }
                    buf.clear();
                    timed(&mut self.t.encode, || msg.encode(&mut buf, cache));
                    self.t.msgs += 1;
                    self.t.bytes += buf.len() as u64;
                    queue.push((node.pid(), to, buf.clone()));
                }
            }
            if queue.is_empty() {
                break;
            }
            for (from, to, bytes) in queue {
                let msg = timed(&mut self.t.decode, || Msg::from_bytes(&bytes))
                    .expect("a frame the codec just encoded decodes");
                let node = &mut self.nodes[to as usize - 1];
                timed(&mut self.t.handle, || node.handle(from, msg));
            }
            self.collect();
        }
        self.collect();
    }

    fn collect(&mut self) {
        for i in 0..self.nodes.len() {
            let res = timed(&mut self.t.results, || self.nodes[i].take_results());
            if i == self.coord_at {
                self.coord.observe(&mut self.nodes[i], &res);
                for o in self.coord.take_outcomes() {
                    self.done.insert((0, o.txn.1));
                }
            }
            for (shard, r) in res {
                if r.client == CLIENT && self.leaders[shard as usize] == i {
                    self.done.insert((shard, r.seq));
                }
            }
        }
    }

    fn tick(&mut self) {
        for i in 0..self.nodes.len() {
            timed(&mut self.t.tick, || self.nodes[i].tick());
        }
        let node = &mut self.nodes[self.coord_at];
        timed(&mut self.t.tick, || self.coord.tick(node));
        self.exchange();
    }
}

pub fn replay(w: &Workload, plan: &Plan) -> Vec<Metric> {
    let shape = w.shape;
    let pids = shape.nodes();
    let nodes: Vec<ShardedKvNode> = pids
        .iter()
        .map(|&pid| {
            let mut base = ServerConfig::with(pid);
            base.lease_ticks = shape.lease_ticks;
            base.lease_epsilon_ticks = (shape.lease_ticks / 10).max(1);
            ShardedKvNode::from_shards(
                (0..shape.shards as u32)
                    .map(|s| KvNode::with_config(shard_config(&base, s, &pids), pids.clone()))
                    .collect(),
            )
        })
        .collect();
    let leaders: Vec<usize> = shape
        .intended_leaders()
        .iter()
        .map(|&p| p as usize - 1)
        .collect();
    let mut r = Replay {
        caches: (0..nodes.len()).map(|_| BatchCache::new()).collect(),
        coord: TxnCoordinator::new(pids[leaders[0]]),
        coord_at: leaders[0],
        nodes,
        t: Tally::default(),
        done: BTreeSet::new(),
        leaders: leaders.clone(),
    };

    // Elect, then write the initial keys, as the live set-up does.
    let elected = |r: &Replay| {
        r.leaders.iter().enumerate().all(|(s, &l)| {
            r.nodes[l].is_leader(s as u32)
                && (shape.lease_ticks == 0 || r.nodes[l].lease_valid(s as u32))
        })
    };
    let mut ticks = 0;
    while !elected(&r) {
        assert!(
            ticks < 10_000,
            "replay cluster never elected its intended leaders"
        );
        r.tick();
        ticks += 1;
    }
    let mut seqs = vec![0u64; shape.shards];
    let mut warm: Vec<(String, i64)> = (0..KEYS).map(|k| (key_name(k), PREFILL)).collect();
    if w.kind == Kind::Txn {
        warm.extend((0..ACCOUNTS).map(|a| (account_name(a), OPENING)));
    }
    for (key, value) in warm {
        let s = shard_of_key(&key, shape.shards);
        seqs[s as usize] += 1;
        let cmd = KvCommand {
            client: CLIENT,
            seq: seqs[s as usize],
            op: KvOp::Put { key, value },
        };
        r.nodes[leaders[s as usize]]
            .submit_batch(s, [cmd])
            .expect("leader accepts the warm-up");
    }
    r.exchange();
    r.tick();
    r.t = Tally::default();
    r.done.clear();

    // The measured replay.
    let window = (w.rate / 1000).max(1) as usize;
    let mut reads = 0u64;
    let mut txns = 0u64;
    for (b, chunk) in plan.ops.chunks(window).enumerate() {
        let mut batches: Vec<Vec<KvCommand>> = vec![Vec::new(); shape.shards];
        for op in chunk {
            let (key, kop) = match *op {
                Op::Put { key, value } => (
                    key,
                    KvOp::Put {
                        key: key_name(key),
                        value,
                    },
                ),
                Op::Cas {
                    key, expect, set, ..
                } => (
                    key,
                    KvOp::Cas {
                        key: key_name(key),
                        expect: Some(expect),
                        set: Some(set),
                    },
                ),
                Op::Read { key } => {
                    reads += 1;
                    let name = key_name(key);
                    let s = shard_of_key(&name, shape.shards);
                    let node = &mut r.nodes[leaders[s as usize]];
                    timed(&mut r.t.submit, || {
                        node.read(ReadMode::Lease, CLIENT, READ_TOKEN | reads, name)
                    })
                    .expect("the leader serves reads");
                    continue;
                }
                Op::Transfer { from, to, amount } => {
                    txns += 1;
                    let spec = TxnSpec::transfer(account_name(from), account_name(to), amount);
                    let node = &mut r.nodes[r.coord_at];
                    let coord = &mut r.coord;
                    let fast = timed(&mut r.t.submit, || {
                        coord.begin(node, (CLIENT, TXN_TOKEN | txns), &spec)
                    });
                    if fast.is_some() {
                        r.done.insert((0, TXN_TOKEN | txns));
                    }
                    continue;
                }
            };
            let s = shard_of_key(&key_name(key), shape.shards) as usize;
            seqs[s] += 1;
            batches[s].push(KvCommand {
                client: CLIENT,
                seq: seqs[s],
                op: kop,
            });
        }
        for (s, cmds) in batches.into_iter().enumerate() {
            if cmds.is_empty() {
                continue;
            }
            let node = &mut r.nodes[leaders[s]];
            timed(&mut r.t.submit, || node.submit_batch(s as u32, cmds))
                .expect("the leader accepts the window");
        }
        r.exchange();
        if b % WINDOWS_PER_TICK == WINDOWS_PER_TICK - 1 {
            r.tick();
        }
    }
    let n = plan.ops.len();
    let mut ticks = 0;
    while r.done.len() < n {
        assert!(
            ticks < 10_000,
            "replay stalled with {} of {n} ops done",
            r.done.len()
        );
        r.tick();
        ticks += 1;
    }

    // Apply every shard's decided log to a fresh state machine.
    let mut apply = 0u64;
    for (s, &l) in leaders.iter().enumerate() {
        let log: Vec<KvCommand> = r.nodes[l].shard(s as u32).server_ref().log().to_vec();
        let mut sm = KvStateMachine::default();
        timed(&mut apply, || {
            for cmd in log {
                black_box(sm.apply(cmd));
            }
        });
        black_box(&sm);
    }

    let t = &r.t;
    let per_op = |ns: u64| ns as f64 / 1e3 / n as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("replay.submit_us_per_op", per_op(t.submit), "us"),
        ("replay.handle_us_per_op", per_op(t.handle), "us"),
        ("replay.outgoing_us_per_op", per_op(t.outgoing), "us"),
        ("replay.results_us_per_op", per_op(t.results), "us"),
        ("replay.tick_us_per_op", per_op(t.tick), "us"),
        ("replay.apply_us_per_op", per_op(apply), "us"),
        ("replay.encode_us_per_op", per_op(t.encode), "us"),
        ("replay.decode_us_per_op", per_op(t.decode), "us"),
        ("replay.msgs_per_op", ratio(t.msgs, n as u64), "msgs/op"),
        (
            "replay.entries_per_accept",
            ratio(t.accept_entries, t.accepts),
            "entries/msg",
        ),
        ("replay.wire_bytes_per_op", ratio(t.bytes, n as u64), "B/op"),
    ]
}
