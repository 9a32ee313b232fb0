//! Fixed-rate benchmark of the shipped TCP kv server.
//!
//! ```text
//! cargo run --release --manifest-path kvbench/Cargo.toml -- \
//!     --workload kv-write --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Boots in-process clusters of `KvServer` over loopback TCP, drives one
//! workload's seeded op stream at a fixed offered rate, audits the
//! outputs and prints, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). See README.md for the workloads and metrics.

mod audit;
mod cluster;
mod link;
mod procstat;
mod quiet;
mod replay;
mod run;
mod workload;

use std::time::Instant;

fn usage() -> ! {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: kvbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2)
}

fn json_metrics(metrics: &[run::Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let t_process = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => name = Some(v.clone()),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<u64>().ok().filter(|&s| (1..=600).contains(&s)),
            "--trace" => trace = v.parse::<u8>().ok().filter(|&t| t <= 1),
            _ => usage(),
        }
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (name, seed, seconds, trace) else {
        usage()
    };
    let Some(w) = workload::by_name(&name) else {
        usage()
    };
    let traced = trace == 1;

    let out = match run::run(&w, seed, seconds, traced, t_process) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kvbench {name}: run failed: {e}");
            std::process::exit(1);
        }
    };
    let ctx: Vec<String> = out
        .context
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("context {name} seed={seed}: {}", ctx.join(" "));
    if let Some(v) = &out.violation {
        println!("audit failed: {v}");
    }
    let metrics = if traced {
        // The traced run's own end-to-end numbers; their difference from
        // an untraced run of the same seed is the tracing overhead.
        println!("traced end-to-end: {}", json_metrics(&out.end_to_end));
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.violation.is_none(),
        out.attempted,
        out.failed,
        json_metrics(metrics)
    );
}
