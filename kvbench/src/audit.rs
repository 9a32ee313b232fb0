//! Output checks. Each takes what the run recorded and a model computed
//! from the generated ops alone, never from the program's own state, and
//! returns a reason when they disagree. The tests below feed each check a
//! deliberately corrupted input, so none of them can pass vacuously.

use crate::workload::{Op, ACCOUNTS, KEYS, OPENING, PREFILL};
use kvstore::KvStateMachine;
use omnipaxos::NodeId;

/// One op's reply as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Done {
    /// When the generator received the reply (ns since phase start).
    pub at_ns: u64,
    pub value: Option<i64>,
    pub applied: bool,
}

/// What happened to one generated op.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Record {
    /// When the op was due (ns since phase start); latency counts from here.
    pub due_ns: u64,
    /// When the generator handed it to the client.
    pub sent_ns: u64,
    pub done: Option<Done>,
    /// Replies received for this op; exactly-once means 1.
    pub completions: u32,
}

pub type Check = Result<(), String>;

/// Every completed op completed once, and no reply arrived for an op
/// the generator never sent.
pub fn exactly_once(records: &[Record], unknown_replies: u64) -> Check {
    if unknown_replies > 0 {
        return Err(format!("{unknown_replies} replies for ops never sent"));
    }
    match records.iter().position(|r| r.completions > 1) {
        Some(i) => Err(format!("op {i} completed {} times", records[i].completions)),
        None => Ok(()),
    }
}

/// Per-key value the client model expects after `ops`: the last
/// successful write, in submission order.
pub fn key_model(ops: &[Op]) -> Vec<i64> {
    let mut model = vec![PREFILL; KEYS as usize];
    for op in ops {
        match *op {
            Op::Put { key, value } => model[key as usize] = value,
            Op::Cas {
                key,
                set,
                wins: true,
                ..
            } => model[key as usize] = set,
            _ => {}
        }
    }
    model
}

/// Final linearizable reads equal the model's last value per key.
pub fn final_reads(model: &[i64], reads: &[Option<i64>]) -> Check {
    if model.len() != reads.len() {
        return Err(format!(
            "{} keys read, {} modelled",
            reads.len(),
            model.len()
        ));
    }
    for (k, (&want, &got)) in model.iter().zip(reads).enumerate() {
        if got != Some(want) {
            return Err(format!("key {k}: read {got:?}, model says {want}"));
        }
    }
    Ok(())
}

/// Read staleness window: a read returns a value no older than the last
/// write acknowledged before the read was sent, and no newer than the
/// last write sent before the read completed. Values on a key grow in
/// submission order, so "older" and "newer" compare values.
pub fn read_staleness(ops: &[Op], records: &[Record]) -> Check {
    // Per key: (value, sent, acked) of each write, in submission order.
    let mut writes: Vec<Vec<(i64, u64, u64)>> = vec![Vec::new(); KEYS as usize];
    for (op, r) in ops.iter().zip(records) {
        if let (Op::Put { key, value }, Some(d)) = (op, r.done) {
            writes[*key as usize].push((*value, r.sent_ns, d.at_ns));
        }
    }
    for (i, (op, r)) in ops.iter().zip(records).enumerate() {
        let (Op::Read { key }, Some(d)) = (op, r.done) else {
            continue;
        };
        let w = &writes[*key as usize];
        let floor = w
            .iter()
            .filter(|x| x.2 < r.sent_ns)
            .map(|x| x.0)
            .max()
            .unwrap_or(PREFILL);
        let ceiling = w
            .iter()
            .filter(|x| x.1 < d.at_ns)
            .map(|x| x.0)
            .max()
            .unwrap_or(PREFILL);
        let Some(v) = d.value else {
            return Err(format!("read {i} of key {key} found nothing"));
        };
        let known = v == PREFILL || w.iter().any(|x| x.0 == v);
        if !known || v < floor || v > ceiling {
            return Err(format!(
                "read {i} of key {key} returned {v}, allowed [{floor}, {ceiling}]"
            ));
        }
    }
    Ok(())
}

/// A put acknowledged as `applied: false, value: None`: the reply to a
/// retransmit that the session table deduplicated after a newer command
/// of the same client had applied. The table keeps only the latest
/// verdict, so the put's own is lost; its effect is checked by the final
/// reads instead.
pub fn verdict_lost(op: &Op, d: &Done) -> bool {
    matches!(op, Op::Put { .. }) && !d.applied && d.value.is_none()
}

/// Every put applied and every CAS verdict is the one the model predicts.
pub fn write_verdicts(ops: &[Op], records: &[Record]) -> Check {
    for (i, (op, r)) in ops.iter().zip(records).enumerate() {
        let Some(d) = r.done else { continue };
        let want = match op {
            Op::Put { .. } if verdict_lost(op, &d) => continue,
            Op::Put { .. } => true,
            Op::Cas { wins, .. } => *wins,
            _ => continue,
        };
        if d.applied != want {
            return Err(format!(
                "op {i} ({op:?}): applied={}, model says {want}",
                d.applied
            ));
        }
    }
    Ok(())
}

/// Balances the model expects: the opening balance moved by every
/// transfer the cluster reported committed. A transfer that asks for
/// more than the whole bank must have aborted.
pub fn balance_model(ops: &[Op], records: &[Record]) -> Result<Vec<i64>, String> {
    let mut bal = vec![OPENING; ACCOUNTS as usize];
    let bank = ACCOUNTS as i64 * OPENING;
    for (i, (op, r)) in ops.iter().zip(records).enumerate() {
        let (Op::Transfer { from, to, amount }, Some(d)) = (op, r.done) else {
            continue;
        };
        if *amount > bank && d.applied {
            return Err(format!("transfer {i} of {amount} > bank {bank} committed"));
        }
        if d.applied {
            bal[*from as usize] -= amount;
            bal[*to as usize] += amount;
        }
    }
    Ok(bal)
}

/// Every balance matches the model and the bank's total is conserved.
pub fn balances(model: &[i64], read: &[i64]) -> Check {
    let total: i64 = read.iter().sum();
    let want = ACCOUNTS as i64 * OPENING;
    if total != want {
        return Err(format!("total balance {total}, opened with {want}"));
    }
    match model.iter().zip(read).position(|(m, r)| m != r) {
        Some(a) => Err(format!(
            "account {a}: read {}, model says {}",
            read[a], model[a]
        )),
        None => Ok(()),
    }
}

/// All replicas of a shard hold the same state machine, session table
/// included, and no transaction is left prepared or holding a lock.
pub fn converged(shard: usize, states: &[&KvStateMachine]) -> Check {
    let Some(first) = states.first() else {
        return Err(format!("shard {shard}: no replicas"));
    };
    if let Some(i) = states.iter().position(|s| s != first) {
        return Err(format!(
            "shard {shard}: replica {} diverges from replica 1",
            i + 1
        ));
    }
    if !first.prepared().is_empty() || !first.locks().is_empty() {
        return Err(format!(
            "shard {shard}: {} prepared txns and {} locks left after settle",
            first.prepared().len(),
            first.locks().len()
        ));
    }
    Ok(())
}

/// Timings of one leaderless period, in ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Failover {
    /// From the cut to the hub's first `Prepare`.
    pub elect_ns: u64,
    /// From that `Prepare` to the first reply to an op due after the cut.
    pub failover_ns: u64,
}

impl Failover {
    pub fn downtime_ns(&self) -> u64 {
        self.elect_ns + self.failover_ns
    }
}

/// One quorum-loss episode as it happened: when the links were cut and
/// healed (ns since phase start) and the node every link was kept to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub cut_ns: u64,
    pub heal_ns: u64,
    pub hub: NodeId,
}

/// In each episode the hub — the only quorum-connected node — is the one
/// that takes over: it sends a `Prepare` after the cut, no other node
/// sends one between it and the heal, and an op due after the cut is
/// served before the heal (so the hub's leadership committed writes).
/// `prepares` are `(ns since phase start, sender)`.
pub fn episodes(
    eps: &[Window],
    prepares: &[(u64, NodeId)],
    records: &[Record],
) -> Result<Vec<Failover>, String> {
    let mut out = Vec::new();
    for (e, ep) in eps.iter().enumerate() {
        let (cut, heal) = (ep.cut_ns, ep.heal_ns);
        let in_cut = |t: u64| t >= cut && t < heal;
        let Some(&(prep, _)) = prepares.iter().find(|&&(t, p)| in_cut(t) && p == ep.hub) else {
            return Err(format!("episode {e}: hub {} never sent Prepare", ep.hub));
        };
        if let Some(&(_, p)) = prepares
            .iter()
            .find(|&&(t, p)| t >= prep && t < heal && p != ep.hub)
        {
            return Err(format!(
                "episode {e}: node {p} also campaigned, hub {}",
                ep.hub
            ));
        }
        let first = records
            .iter()
            .filter(|r| r.due_ns >= cut)
            .filter_map(|r| r.done.map(|d| d.at_ns))
            .min();
        match first {
            Some(t) if t < heal && t >= prep => out.push(Failover {
                elect_ns: prep - cut,
                failover_ns: t - prep,
            }),
            other => {
                return Err(format!(
                    "episode {e}: first reply after the cut at {other:?} ns, hub Prepare at {prep}, heal at {heal}"
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::{KvCommand, KvOp};

    fn rec(due: u64, sent: u64, at: u64, value: Option<i64>, applied: bool) -> Record {
        Record {
            due_ns: due,
            sent_ns: sent,
            done: Some(Done {
                at_ns: at,
                value,
                applied,
            }),
            completions: 1,
        }
    }

    #[test]
    fn exactly_once_rejects_duplicates_and_strays() {
        let mut r = vec![rec(0, 0, 5, Some(1), true); 3];
        assert!(exactly_once(&r, 0).is_ok());
        assert!(exactly_once(&r, 1).is_err());
        r[1].completions = 2;
        assert!(exactly_once(&r, 0).is_err());
    }

    #[test]
    fn final_reads_reject_a_lost_write() {
        let ops = vec![Op::Put { key: 3, value: 1 }, Op::Put { key: 3, value: 2 }];
        let model = key_model(&ops);
        let mut reads: Vec<Option<i64>> = model.iter().map(|&v| Some(v)).collect();
        assert!(final_reads(&model, &reads).is_ok());
        reads[3] = Some(1); // the acknowledged write 2 is gone
        assert!(final_reads(&model, &reads).is_err());
    }

    #[test]
    fn staleness_rejects_stale_and_future_reads() {
        let ops = vec![
            Op::Put { key: 0, value: 1 },
            Op::Read { key: 0 },
            Op::Put { key: 0, value: 3 },
        ];
        // Write 1 acked at 10; the read is sent at 20 and done at 30;
        // write 3 is sent only at 40.
        let mut r = vec![
            rec(0, 0, 10, Some(1), true),
            rec(20, 20, 30, Some(1), false),
            rec(40, 40, 50, Some(3), true),
        ];
        assert!(read_staleness(&ops, &r).is_ok());
        r[1].done.as_mut().unwrap().value = Some(PREFILL); // older than acked
        assert!(read_staleness(&ops, &r).is_err());
        r[1].done.as_mut().unwrap().value = Some(3); // newer than any sent
        assert!(read_staleness(&ops, &r).is_err());
        r[1].done.as_mut().unwrap().value = Some(77); // never written
        assert!(read_staleness(&ops, &r).is_err());
    }

    #[test]
    fn write_verdicts_reject_a_wrong_cas_outcome() {
        let ops = vec![Op::Cas {
            key: 0,
            expect: 5,
            set: 1,
            wins: false,
        }];
        let mut r = vec![rec(0, 0, 1, Some(0), false)];
        assert!(write_verdicts(&ops, &r).is_ok());
        r[0].done.as_mut().unwrap().applied = true;
        assert!(write_verdicts(&ops, &r).is_err());
        // A put that reports a value but no effect was refused.
        let put = vec![Op::Put { key: 0, value: 4 }];
        assert!(write_verdicts(&put, &[rec(0, 0, 1, Some(4), true)]).is_ok());
        assert!(write_verdicts(&put, &[rec(0, 0, 1, None, false)]).is_ok());
        assert!(write_verdicts(&put, &[rec(0, 0, 1, Some(3), false)]).is_err());
    }

    #[test]
    fn balances_reject_drift_and_a_committed_overdraft() {
        let ops = vec![
            Op::Transfer {
                from: 0,
                to: 1,
                amount: 7,
            },
            Op::Transfer {
                from: 2,
                to: 3,
                amount: ACCOUNTS as i64 * OPENING + 1,
            },
        ];
        let mut r = vec![rec(0, 0, 1, Some(1), true), rec(0, 0, 1, Some(0), false)];
        let model = balance_model(&ops, &r).unwrap();
        let mut read = model.clone();
        assert!(balances(&model, &read).is_ok());
        read[0] += 1; // money created
        assert!(balances(&model, &read).is_err());
        read[0] -= 1;
        read[0] += 1;
        read[1] -= 1; // conserved but misplaced
        assert!(balances(&model, &read).is_err());
        r[1].done.as_mut().unwrap().applied = true;
        assert!(balance_model(&ops, &r).is_err());
    }

    #[test]
    fn convergence_rejects_a_diverged_session_table() {
        let cmd = |seq| KvCommand {
            client: 9,
            seq,
            op: KvOp::Put {
                key: "a".into(),
                value: 1,
            },
        };
        let mut a = KvStateMachine::default();
        a.apply(cmd(1));
        let b = a.clone();
        assert!(converged(0, &[&a, &b]).is_ok());
        let mut c = a.clone();
        c.apply(cmd(2)); // same key/value, newer session seq
        assert_eq!(c.state(), a.state());
        assert!(converged(0, &[&a, &c]).is_err());
    }

    #[test]
    fn episodes_reject_a_wrong_leader_and_no_service() {
        let ms = 1_000_000;
        let eps = [Window {
            cut_ns: 100 * ms,
            heal_ns: 200 * ms,
            hub: 3,
        }];
        let records = vec![rec(150 * ms, 150 * ms, 160 * ms, Some(1), true)];
        let prepares = vec![(0, 1), (120 * ms, 3)];
        let f = episodes(&eps, &prepares, &records).unwrap();
        assert_eq!(f[0].elect_ns, 20 * ms);
        assert_eq!(f[0].downtime_ns(), 60 * ms);
        // Another node campaigns after the hub.
        let rival = vec![(120 * ms, 3), (130 * ms, 2)];
        assert!(episodes(&eps, &rival, &records).is_err());
        // The hub never campaigns.
        assert!(episodes(&eps, &[(120 * ms, 2)], &records).is_err());
        // Nothing is served before the heal.
        let late = vec![rec(150 * ms, 150 * ms, 250 * ms, Some(1), true)];
        assert!(episodes(&eps, &prepares, &late).is_err());
    }
}
