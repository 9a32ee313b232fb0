//! One benchmark run: set the cluster up (several times, for a steady
//! `setup_s`), drive the workload's op stream at its fixed rate, audit
//! the outputs and turn the readings into metrics.

use crate::audit::{self, Done, Failover, Record, Window};
use crate::cluster::{Cluster, Server};
use crate::procstat;
use crate::quiet;
use crate::workload::{
    account_name, key_name, Kind, Op, Plan, Workload, ACCOUNTS, KEYS, OPENING, PREFILL,
};
use kvstore::{KvOp, ReadMode};
use net::{NetworkLink, ShardedKvClient};
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const PROBE_CLIENT: u64 = 0xB007;
const WARM_CLIENT: u64 = 0x3A3A;
const GEN_CLIENT: u64 = 0x6E6E;
const AUDIT_CLIENT: u64 = 0xA0D1;
/// How long ops may still complete after the last one was due.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first audit that failed, if any.
    pub violation: Option<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Run context printed beside the metrics (not gated).
    pub context: Vec<(String, String)>,
}

struct Boot {
    cluster: Cluster,
    failover: Failover,
    placement: Vec<u64>,
}

fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

fn ns_since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

/// Boot a cluster, time its first election and first reply, check leader
/// placement and write the initial keys.
fn boot(w: &Workload, traced: bool) -> Result<Boot, String> {
    let mut cluster = Cluster::build(w.shape, traced)?;
    cluster.start();
    let t0 = Instant::now();
    let mut probe = ShardedKvClient::new(PROBE_CLIENT, cluster.clients.clone(), w.shape.shards);
    probe.submit(KvOp::Put {
        key: "probe".into(),
        value: 1,
    });
    let replied = loop {
        if !probe.pump().map_err(io("boot probe"))?.is_empty() {
            break Instant::now();
        }
        if t0.elapsed() > Duration::from_secs(20) {
            return Err("no reply within 20 s of boot".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    drop(probe);
    let placement = cluster.placement(Duration::from_secs(10))?;
    let intended = w.shape.intended_leaders();
    if placement != intended {
        return Err(format!(
            "leader placement {placement:?} differs from shard_config's {intended:?}"
        ));
    }
    let prepared = cluster
        .fabric
        .prepares()
        .into_iter()
        .map(|(t, _)| t)
        .find(|&t| t >= t0)
        .ok_or("a leader was elected without a Prepare on the wire")?;
    let failover = Failover {
        elect_ns: ns_since(t0, prepared),
        failover_ns: ns_since(prepared, replied),
    };

    let mut warm =
        ShardedKvClient::bootstrap(WARM_CLIENT, cluster.clients.clone(), Duration::from_secs(5))
            .map_err(io("warm-up client"))?;
    for k in 0..KEYS {
        warm.submit(KvOp::Put {
            key: key_name(k),
            value: PREFILL,
        });
    }
    if w.kind == Kind::Txn {
        for a in 0..ACCOUNTS {
            warm.submit(KvOp::Put {
                key: account_name(a),
                value: OPENING,
            });
        }
    }
    warm.drain(Duration::from_secs(30)).map_err(io("warm-up"))?;
    Ok(Boot {
        cluster,
        failover,
        placement,
    })
}

/// Counters read from the stopped servers at a phase boundary.
#[derive(Debug, Default, Clone)]
struct Snap {
    msgs_sent: u64,
    bytes_sent: u64,
    writer_batches: u64,
    writer_frames: u64,
    proposal_batches: u64,
    proposed_ops: u64,
    reply_batches: u64,
    reply_frames: u64,
    shed: u64,
    prepare_reqs: u64,
    /// Decided log length per shard, the longest replica's.
    decided: Vec<u64>,
    /// Every ballot any replica elected, as `(n, priority, pid)`.
    ballots: BTreeSet<(u64, u64, u64)>,
}

fn snap(servers: &[Server]) -> Snap {
    let mut s = Snap::default();
    for sv in servers {
        let c = sv.link().map(|l| l.counters()).unwrap_or_default();
        s.msgs_sent += c.msgs_sent;
        s.bytes_sent += c.bytes_sent;
        s.writer_batches += c.writer_batches;
        s.writer_frames += c.writer_frames;
        let (pb, po) = sv.proposal_stats();
        s.proposal_batches += pb;
        s.proposed_ops += po;
        let (rb, rf) = sv.gateway_reply_stats();
        s.reply_batches += rb;
        s.reply_frames += rf;
        s.shed += sv.shed_requests();
        s.prepare_reqs += sv.prepare_reqs_received();
        let node = sv.node();
        s.decided.resize(node.n_shards(), 0);
        for sh in 0..node.n_shards() {
            let server = node.shard(sh as u32).server_ref();
            s.decided[sh] = s.decided[sh].max(server.decided_len());
            s.ballots.extend(
                server
                    .ballot_audit()
                    .iter()
                    .map(|b| (b.n, b.priority, b.pid)),
            );
        }
    }
    s
}

/// What the generator saw.
struct Drive {
    records: Vec<Record>,
    unknown: u64,
    late_max_ns: u64,
    windows: Vec<Window>,
    /// When the last reply arrived (ns since phase start).
    end_ns: u64,
    /// Stolen jiffies per [`quiet::WINDOW_NS`] window of the phase.
    stolen: Vec<u64>,
}

/// The open-loop generator: op `i` is due at `i * period` and is sent
/// as soon as it is due, whatever is still outstanding. `qloss`'s cuts
/// and heals run from the same loop, on the plan's schedule.
fn drive(
    w: &Workload,
    plan: &Plan,
    client: &mut ShardedKvClient,
    cluster: &Cluster,
    start: Instant,
    threads: &mut procstat::ThreadCpu,
) -> Result<Drive, String> {
    let keys: Vec<String> = (0..KEYS).map(key_name).collect();
    let accounts: Vec<String> = (0..ACCOUNTS).map(account_name).collect();
    let n = plan.ops.len();
    let mut records: Vec<Record> = (0..n)
        .map(|i| Record {
            due_ns: i as u64 * plan.period_ns,
            ..Record::default()
        })
        .collect();
    let mut tokens: HashMap<(u32, u64), u32> = HashMap::with_capacity(n);
    let (mut next, mut unknown, mut late_max_ns, mut outstanding) = (0usize, 0u64, 0u64, 0usize);
    let mut windows: Vec<Window> = Vec::new();
    let mut episode = 0usize;
    let last_due = records.last().map(|r| r.due_ns).unwrap_or(0);
    let mut end_ns = 0;
    let mut sampler = quiet::Sampler::start();
    loop {
        let now = ns_since(start, Instant::now());
        sampler.tick(now);
        if let Some(ep) = plan.episodes.get(episode) {
            let cut_open = windows.len() > episode;
            // Client connections move to the new leader after a cut and
            // their threads exit; sampling here keeps their CPU.
            if !cut_open && now >= ep.cut_ms * 1_000_000 {
                threads.sample();
                for a in w.shape.nodes() {
                    for b in w.shape.nodes() {
                        if a < b && a != ep.hub && b != ep.hub {
                            cluster.fabric.cut(a, b);
                        }
                    }
                }
                windows.push(Window {
                    cut_ns: ns_since(start, Instant::now()),
                    heal_ns: u64::MAX,
                    hub: ep.hub,
                });
            } else if cut_open && now >= ep.heal_ms * 1_000_000 {
                threads.sample();
                cluster.fabric.heal_all();
                windows[episode].heal_ns = ns_since(start, Instant::now());
                episode += 1;
            }
        }
        let mut busy = false;
        while next < n && records[next].due_ns <= now {
            let token = match plan.ops[next] {
                Op::Put { key, value } => client.submit(KvOp::Put {
                    key: keys[key as usize].clone(),
                    value,
                }),
                Op::Read { key } => client.submit_read(&keys[key as usize]),
                Op::Cas {
                    key, expect, set, ..
                } => client.submit(KvOp::Cas {
                    key: keys[key as usize].clone(),
                    expect: Some(expect),
                    set: Some(set),
                }),
                Op::Transfer { from, to, amount } => {
                    client.transfer(&accounts[from as usize], &accounts[to as usize], amount)
                }
            };
            tokens.insert(token, next as u32);
            let sent = ns_since(start, Instant::now());
            records[next].sent_ns = sent;
            late_max_ns = late_max_ns.max(sent.saturating_sub(records[next].due_ns));
            next += 1;
            outstanding += 1;
            busy = true;
        }
        let done = client.pump().map_err(io("generator"))?;
        if !done.is_empty() {
            let at_ns = ns_since(start, Instant::now());
            end_ns = at_ns;
            busy = true;
            for (shard, r) in done {
                let Some(&i) = tokens.get(&(shard, r.seq)) else {
                    unknown += 1;
                    continue;
                };
                let rec = &mut records[i as usize];
                rec.completions += 1;
                if rec.done.is_none() {
                    outstanding -= 1;
                    rec.done = Some(Done {
                        at_ns,
                        value: r.value,
                        applied: r.applied,
                    });
                }
            }
        }
        if next == n && (outstanding == 0 || now > last_due + DRAIN_LIMIT.as_nanos() as u64) {
            break;
        }
        if !busy {
            let until_due = records
                .get(next)
                .map(|r| r.due_ns.saturating_sub(now))
                .unwrap_or(u64::MAX);
            std::thread::sleep(Duration::from_nanos(until_due.clamp(10_000, 100_000)));
        }
    }
    if windows.len() > episode {
        cluster.fabric.heal_all(); // a run too short to reach its heal
        windows[episode].heal_ns = ns_since(start, Instant::now());
    }
    let stolen = sampler.finish(ns_since(start, Instant::now()));
    Ok(Drive {
        records,
        unknown,
        late_max_ns,
        windows,
        end_ns,
        stolen,
    })
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Linearizable (log-path) reads of `names`, retried until `accept`
/// holds or `limit` passes. Returns the last values read. Balances need
/// the retry: a transfer is reported once its decision is durable, while
/// the participants' commit records that move the money may still apply.
fn read_all(
    cluster: &Cluster,
    names: &[String],
    limit: Duration,
    accept: impl Fn(&[Option<i64>]) -> bool,
) -> Result<Vec<Option<i64>>, String> {
    let mut c = ShardedKvClient::bootstrap(
        AUDIT_CLIENT,
        cluster.clients.clone(),
        Duration::from_secs(5),
    )
    .map_err(io("audit client"))?;
    c.set_read_mode(ReadMode::Log);
    let deadline = Instant::now() + limit;
    loop {
        let mut slot = HashMap::new();
        for (i, k) in names.iter().enumerate() {
            slot.insert(c.submit_read(k), i);
        }
        let mut vals = vec![None; names.len()];
        for (shard, r) in c
            .drain(Duration::from_secs(30))
            .map_err(io("audit reads"))?
        {
            if let Some(&i) = slot.get(&(shard, r.seq)) {
                vals[i] = r.value;
            }
        }
        if accept(&vals) || Instant::now() > deadline {
            return Ok(vals);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    t_process: Instant,
) -> Result<Outcome, String> {
    let plan = Plan::generate(w, seed, seconds);

    // Set-up, several times over; the last cluster is the one measured.
    let mut setup_s = Vec::new();
    let mut boots = Vec::new();
    let mut current: Option<Boot> = None;
    for i in 0..SETUPS {
        drop(current.take());
        let t0 = if i == 0 { t_process } else { Instant::now() };
        let b = boot(w, traced)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        boots.push(b.failover);
        current = Some(b);
    }
    let Boot {
        mut cluster,
        placement,
        ..
    } = current.expect("at least one set-up");

    // Counters at the start of the measured phase.
    cluster.stop();
    let before = snap(cluster.servers());
    cluster.start();
    let mut client =
        ShardedKvClient::bootstrap(GEN_CLIENT, cluster.clients.clone(), Duration::from_secs(5))
            .map_err(io("generator client"))?;
    if w.kind == Kind::Read {
        client.set_read_mode(ReadMode::Lease);
    }
    let spans0 = cluster.fabric.spans();
    let host0 = procstat::host_cpu();
    let mut threads = procstat::ThreadCpu::start();
    let cpu0 = procstat::process_cpu();
    let start = Instant::now();
    let d = drive(w, &plan, &mut client, &cluster, start, &mut threads)?;
    let cpu = procstat::process_cpu() - cpu0;
    threads.sample();
    let groups = threads.groups();
    let steal = procstat::steal_share(host0, procstat::host_cpu());
    let spans = cluster.fabric.spans();
    let retries = client.retries_seen();
    drop(client);
    let prepares: Vec<(u64, u64)> = cluster
        .fabric
        .prepares()
        .into_iter()
        .filter(|&(t, _)| t >= start)
        .map(|(t, p)| (ns_since(start, t), p))
        .collect();

    cluster.stop();
    let after = snap(cluster.servers());
    cluster.start();

    // Audits.
    let ops = &plan.ops;
    let records = &d.records;
    let completed = records.iter().filter(|r| r.done.is_some()).count() as u64;
    let failed = ops.len() as u64 - completed;
    let mut checks: Vec<(&str, audit::Check)> =
        vec![("exactly-once", audit::exactly_once(records, d.unknown))];
    let keys: Vec<String> = (0..KEYS).map(key_name).collect();
    let model = audit::key_model(ops);
    // Every op is acknowledged, so one linearizable read must see it all.
    let reads = read_all(&cluster, &keys, Duration::ZERO, |_| true)?;
    checks.push(("final reads", audit::final_reads(&model, &reads)));
    checks.push(("write verdicts", audit::write_verdicts(ops, records)));
    let writes = ops.iter().filter(|o| !matches!(o, Op::Read { .. })).count() as u64;
    let decided_growth: u64 = after
        .decided
        .iter()
        .zip(&before.decided)
        .map(|(a, b)| a - b)
        .sum();
    if w.kind == Kind::Read {
        checks.push(("read staleness", audit::read_staleness(ops, records)));
        checks.push((
            "log-free reads",
            if decided_growth == writes {
                Ok(())
            } else {
                Err(format!(
                    "decided log grew by {decided_growth} for {writes} writes"
                ))
            },
        ));
    }
    let mut transfers = 0u64;
    if w.kind == Kind::Txn {
        transfers = ops
            .iter()
            .filter(|o| matches!(o, Op::Transfer { .. }))
            .count() as u64;
        match audit::balance_model(ops, records) {
            Ok(bal_model) => {
                let names: Vec<String> = (0..ACCOUNTS).map(account_name).collect();
                let want: Vec<Option<i64>> = bal_model.iter().map(|&b| Some(b)).collect();
                let read = read_all(&cluster, &names, Duration::from_secs(10), |v| {
                    v == want.as_slice()
                })?;
                let read: Vec<i64> = read
                    .into_iter()
                    .map(|v| v.unwrap_or(i64::MIN / 4))
                    .collect();
                checks.push(("balances", audit::balances(&bal_model, &read)));
            }
            Err(e) => checks.push(("balances", Err(e))),
        }
    }
    let mut episodes = Vec::new();
    if w.kind == Kind::Qloss {
        match audit::episodes(&d.windows, &prepares, records) {
            Ok(f) => episodes = f,
            Err(e) => checks.push(("quorum-loss episodes", Err(e))),
        }
    }
    cluster.stop();
    let shards = w.shape.shards;
    let same = |servers: &[Server]| {
        (0..shards).all(|s| {
            let sms: Vec<_> = servers
                .iter()
                .map(|v| v.node().shard(s as u32).state_machine())
                .collect();
            audit::converged(s, &sms).is_ok()
        })
    };
    cluster.settle(Duration::from_secs(10), same);
    for s in 0..shards {
        let sms: Vec<_> = cluster
            .servers()
            .iter()
            .map(|v| v.node().shard(s as u32).state_machine())
            .collect();
        checks.push(("convergence", audit::converged(s, &sms)));
    }
    let violation = checks
        .into_iter()
        .find_map(|(name, c)| c.err().map(|e| format!("{name}: {e}")));

    // End-to-end metrics. Latency pools the ops due in quiet windows.
    let quiet = quiet::quiet(&d.stolen);
    let lat_ms = |f: &dyn Fn(&Op, &Record) -> bool| -> Vec<f64> {
        let mut v: Vec<f64> = ops
            .iter()
            .zip(records)
            .filter(|(o, r)| f(o, r))
            .filter_map(|(_, r)| {
                r.done
                    .map(|d| (d.at_ns - r.due_ns.min(d.at_ns)) as f64 / 1e6)
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let in_quiet = |r: &Record| quiet::in_quiet(&quiet, r.due_ns);
    let all = lat_ms(&|_, r| in_quiet(r));
    let heavy = if w.kind == Kind::Txn {
        lat_ms(&|o, r| in_quiet(r) && matches!(o, Op::Transfer { .. }))
    } else {
        lat_ms(&|o, r| in_quiet(r) && matches!(o, Op::Put { .. }))
    };
    let whole_run = lat_ms(&|_, _| true);
    let periods: Vec<Failover> = boots.iter().chain(&episodes).copied().collect();
    let per = |f: fn(&Failover) -> u64| {
        mean(
            &periods
                .iter()
                .map(|p| f(p) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let per_op = |x: f64| x * 1e6 / completed.max(1) as f64;
    let end_to_end = vec![
        ("setup_s", median(&setup_s), "s"),
        ("p50_ms", percentile(&all, 0.50), "ms"),
        ("p75_ms", percentile(&all, 0.75), "ms"),
        ("write_p50_ms", percentile(&heavy, 0.50), "ms"),
        ("rss_mb", procstat::peak_rss_mb(), "MiB"),
        ("downtime_ms", per(Failover::downtime_ns), "ms"),
    ];

    // Per-layer metrics.
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let g = |name: &str| groups.get(name).copied().unwrap_or(0.0);
    let new_ballots = after.ballots.difference(&before.ballots).count() as f64;
    let mut per_layer = vec![
        ("process.cpu_us_per_op", per_op(cpu), "us"),
        ("client.cpu_us_per_op", per_op(g("client")), "us"),
        ("client.retries", retries as f64, "count"),
        ("gen.late_ms", d.late_max_ns as f64 / 1e6, "ms"),
        ("gateway.cpu_us_per_op", per_op(g("gateway")), "us"),
        ("server.cpu_us_per_op", per_op(g("server")), "us"),
        (
            "server.ops_per_batch",
            ratio(
                after.proposed_ops - before.proposed_ops,
                after.proposal_batches - before.proposal_batches,
            ),
            "ops/batch",
        ),
        (
            "server.replies_per_write",
            ratio(
                after.reply_frames - before.reply_frames,
                after.reply_batches - before.reply_batches,
            ),
            "replies/write",
        ),
        ("server.shed", (after.shed - before.shed) as f64, "count"),
        ("tcp.read.cpu_us_per_op", per_op(g("tcp.read")), "us"),
        ("tcp.write.cpu_us_per_op", per_op(g("tcp.write")), "us"),
        (
            "tcp.msgs_per_op",
            ratio(after.msgs_sent - before.msgs_sent, completed),
            "msgs/op",
        ),
        (
            "tcp.bytes_per_op",
            ratio(after.bytes_sent - before.bytes_sent, completed),
            "B/op",
        ),
        (
            "tcp.frames_per_write",
            ratio(
                after.writer_frames - before.writer_frames,
                after.writer_batches - before.writer_batches,
            ),
            "frames/write",
        ),
        (
            "link.send_us_per_op",
            per_op((spans.send_ns - spans0.send_ns) as f64 / 1e9),
            "us",
        ),
        (
            "link.poll_us_per_op",
            per_op((spans.poll_ns - spans0.poll_ns) as f64 / 1e9),
            "us",
        ),
        (
            "log.entries_per_op",
            ratio(decided_growth, completed),
            "entries/op",
        ),
        (
            "txn.entries_per_transfer",
            if transfers == 0 {
                0.0
            } else {
                decided_growth.saturating_sub(writes - transfers) as f64 / transfers as f64
            },
            "entries/txn",
        ),
        ("ble.leader_changes", new_ballots, "count"),
        (
            "ble.prepare_reqs",
            (after.prepare_reqs - before.prepare_reqs) as f64,
            "count",
        ),
        ("ble.elect_ms", per(|f| f.elect_ns), "ms"),
        ("ble.failover_ms", per(|f| f.failover_ns), "ms"),
    ];
    if traced {
        per_layer.extend(crate::replay::replay(w, &plan));
    }

    let group_sum: f64 = procstat::GROUPS.iter().map(|n| g(n)).sum();
    let context = vec![
        ("placement".to_string(), format!("{placement:?}")),
        (
            "host_cores".to_string(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("steal_share".to_string(), format!("{steal:.4}")),
        (
            "gen_late_ms".to_string(),
            format!("{:.3}", d.late_max_ns as f64 / 1e6),
        ),
        (
            "quiet_windows".to_string(),
            format!("{}/{}", quiet.iter().filter(|&&q| q).count(), quiet.len()),
        ),
        (
            "p90_ms".to_string(),
            format!("{:.3}", percentile(&all, 0.90)),
        ),
        (
            "p99_ms".to_string(),
            format!("{:.3}", percentile(&all, 0.99)),
        ),
        (
            "whole_run_p50_ms".to_string(),
            format!("{:.3}", percentile(&whole_run, 0.50)),
        ),
        (
            "whole_run_p75_ms".to_string(),
            format!("{:.3}", percentile(&whole_run, 0.75)),
        ),
        ("cpu_us_per_op".to_string(), format!("{:.2}", per_op(cpu))),
        ("offered_per_s".to_string(), w.rate.to_string()),
        (
            "achieved_per_s".to_string(),
            format!("{:.0}", completed as f64 / (d.end_ns.max(1) as f64 / 1e9)),
        ),
        (
            "thread_groups_over_process_cpu".to_string(),
            format!("{:.4}", group_sum / cpu.max(1e-9)),
        ),
        (
            "other_threads_cpu_us_per_op".to_string(),
            format!("{:.3}", per_op(g("other"))),
        ),
        ("episodes".to_string(), format!("{}", episodes.len())),
        (
            "episode_downtime_max_ms".to_string(),
            format!(
                "{:.1}",
                episodes
                    .iter()
                    .map(|e| e.downtime_ns() as f64 / 1e6)
                    .fold(0.0, f64::max)
            ),
        ),
        (
            "cut_drops".to_string(),
            cluster.fabric.dropped().to_string(),
        ),
        (
            "put_verdicts_lost".to_string(),
            ops.iter()
                .zip(records)
                .filter(|(o, r)| r.done.is_some_and(|d| audit::verdict_lost(o, &d)))
                .count()
                .to_string(),
        ),
    ];
    Ok(Outcome {
        attempted: ops.len() as u64,
        failed,
        violation,
        end_to_end,
        per_layer,
        context,
    })
}
