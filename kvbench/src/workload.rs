//! The four workloads and the seeded op streams they replay.
//!
//! Everything the cluster sees is generated here from `--seed`, before
//! the cluster boots: the same seed gives the same ops, keys and values,
//! and the same quorum-loss hubs. Op *kinds* follow a fixed pattern (not
//! a coin flip), so every seed has exactly the same mix.

use crate::cluster::Shape;

/// Keys written and read by every workload (`k00000`..).
pub const KEYS: u32 = 1024;
/// Bank accounts of `kv-txn` (`acct000`..), funded during set-up.
pub const ACCOUNTS: u32 = 256;
pub const OPENING: i64 = 1_000;
/// Every key starts at this value, written during set-up.
pub const PREFILL: i64 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Write,
    Read,
    Txn,
    Qloss,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub shape: Shape,
    /// Offered load, ops per second.
    pub rate: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kv-write",
        kind: Kind::Write,
        shape: Shape {
            replicas: 3,
            shards: 1,
            lease_ticks: 0,
        },
        rate: 20_000,
    },
    Workload {
        name: "kv-read",
        kind: Kind::Read,
        shape: Shape {
            replicas: 3,
            shards: 1,
            lease_ticks: 40,
        },
        rate: 20_000,
    },
    Workload {
        name: "kv-txn",
        kind: Kind::Txn,
        shape: Shape {
            replicas: 3,
            shards: 2,
            lease_ticks: 0,
        },
        rate: 10_000,
    },
    Workload {
        name: "qloss",
        kind: Kind::Qloss,
        shape: Shape {
            replicas: 5,
            shards: 1,
            lease_ticks: 0,
        },
        rate: 5_000,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One generated operation. Values are the op's index + 1, so every
/// written value is unique and values on a key grow in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Put {
        key: u32,
        value: i64,
    },
    Read {
        key: u32,
    },
    /// `wins` is the verdict the client model predicts: the generator
    /// is the only writer of its keys and one session applies in seq
    /// order, so the expected value at apply time is known up front.
    Cas {
        key: u32,
        expect: i64,
        set: i64,
        wins: bool,
    },
    Transfer {
        from: u32,
        to: u32,
        amount: i64,
    },
}

/// One quorum-loss episode of `qloss`: offsets from the start of the
/// measured phase, and the non-leader every link is kept to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    pub cut_ms: u64,
    pub heal_ms: u64,
    pub hub: u64,
}

pub struct Plan {
    pub ops: Vec<Op>,
    pub episodes: Vec<Episode>,
    /// Nanoseconds between consecutive ops' due times.
    pub period_ns: u64,
}

/// splitmix64: a tiny seeded generator with good statistical quality.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_B00C)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

pub fn key_name(k: u32) -> String {
    format!("k{k:05}")
}

pub fn account_name(a: u32) -> String {
    format!("acct{a:03}")
}

/// Length of one `qloss` episode cycle; each run holds
/// `seconds * 1000 / EPISODE_MS` episodes (at least one). Each cycle
/// cuts `CUT_AT_MS` in and heals `HOLD_MS` later. The outage (about
/// 0.25 s a cycle) holds about 5% of the ops, so `p50_ms` and `p75_ms`
/// read the service between outages and `downtime_ms` the outages. With
/// a quarter of the ops in outages, `p50_ms` read the tail of the
/// service latency instead and doubled when the host was contended.
pub const EPISODE_MS: u64 = 5_000;
const CUT_AT_MS: u64 = 500;
const HOLD_MS: u64 = 1_000;

impl Plan {
    pub fn generate(w: &Workload, seed: u64, seconds: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let n = (w.rate * seconds) as usize;
        let mut model = vec![PREFILL; KEYS as usize];
        let mut ops = Vec::with_capacity(n);
        let mut transfers = 0u64;
        let accounts_on = |shard: u32| -> Vec<u32> {
            (0..ACCOUNTS)
                .filter(|&a| kvstore::shard_of_key(&account_name(a), w.shape.shards) == shard)
                .collect()
        };
        let (side0, side1) = (accounts_on(0), accounts_on(1));
        for i in 0..n {
            let value = i as i64 + 1;
            let key = rng.below(KEYS as u64) as u32;
            let slot = i % 20;
            let op = match w.kind {
                Kind::Write | Kind::Qloss => Op::Put { key, value },
                // 95% reads, 5% puts.
                Kind::Read if slot == 19 => Op::Put { key, value },
                Kind::Read => Op::Read { key },
                // 80% puts, 15% CAS, 5% cross-shard transfers.
                Kind::Txn if slot < 16 => Op::Put { key, value },
                Kind::Txn if slot < 19 => {
                    // One CAS in four carries a stale expectation and
                    // must lose, so both verdicts are exercised.
                    let stale = rng.below(4) == 0;
                    let cur = model[key as usize];
                    Op::Cas {
                        key,
                        expect: if stale { cur + 1_000_000_000 } else { cur },
                        set: value,
                        wins: !stale,
                    }
                }
                Kind::Txn => {
                    transfers += 1;
                    let from = side0[rng.below(side0.len() as u64) as usize];
                    let to = side1[rng.below(side1.len() as u64) as usize];
                    let (from, to) = if rng.below(2) == 0 {
                        (from, to)
                    } else {
                        (to, from)
                    };
                    // Every 16th transfer asks for more than the whole
                    // bank holds: a guaranteed abort.
                    let amount = if transfers.is_multiple_of(16) {
                        ACCOUNTS as i64 * OPENING + 1
                    } else {
                        1 + rng.below(50) as i64
                    };
                    Op::Transfer { from, to, amount }
                }
            };
            match op {
                Op::Put { key, value } => model[key as usize] = value,
                Op::Cas {
                    key,
                    set,
                    wins: true,
                    ..
                } => model[key as usize] = set,
                _ => {}
            }
            ops.push(op);
        }
        let mut episodes = Vec::new();
        if w.kind == Kind::Qloss {
            // The leader `shard_config` places first; after each episode
            // the hub leads, so the next hub is drawn from the others.
            let mut leader = w.shape.intended_leaders()[0];
            for e in 0..(seconds * 1000 / EPISODE_MS).max(1) {
                let others: Vec<u64> = w
                    .shape
                    .nodes()
                    .into_iter()
                    .filter(|&p| p != leader)
                    .collect();
                let hub = others[rng.below(others.len() as u64) as usize];
                let cut_ms = e * EPISODE_MS + CUT_AT_MS;
                episodes.push(Episode {
                    cut_ms,
                    heal_ms: cut_ms + HOLD_MS,
                    hub,
                });
                leader = hub;
            }
        }
        Plan {
            ops,
            episodes,
            period_ns: 1_000_000_000 / w.rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_and_fixed_mix() {
        for w in WORKLOADS {
            let a = Plan::generate(&w, 7, 1);
            let b = Plan::generate(&w, 7, 1);
            let c = Plan::generate(&w, 8, 1);
            assert_eq!(a.ops, b.ops, "{}", w.name);
            assert_ne!(a.ops, c.ops, "{}", w.name);
            assert_eq!(a.episodes, b.episodes);
            let count = |p: &Plan, f: fn(&Op) -> bool| p.ops.iter().filter(|o| f(o)).count();
            let is_put: fn(&Op) -> bool = |o| matches!(o, Op::Put { .. });
            assert_eq!(
                count(&a, is_put),
                count(&c, is_put),
                "mix fixed across seeds"
            );
        }
    }

    #[test]
    fn transfers_always_cross_shards() {
        let w = by_name("kv-txn").unwrap();
        for op in Plan::generate(&w, 3, 1).ops {
            if let Op::Transfer { from, to, .. } = op {
                assert_ne!(
                    kvstore::shard_of_key(&account_name(from), 2),
                    kvstore::shard_of_key(&account_name(to), 2)
                );
            }
        }
    }
}
