//! The end-to-end run of the four served workloads: two closed-loop client
//! threads drive the served cluster through `RouterClient` for `seconds`,
//! then the control checks what they saw.

use crate::gen::{mixed_palette, stream_hash, Mix, OpGen, QUERY_PALETTE};
use crate::harness::{median, peak_rss_mb, quantile_sorted, set_up, Corpus, Served, Spec, CLIENTS};
use crate::oracle::{compare_exports, sampled, Control, Tally};
use crate::report::{Report, Value};
use crate::target::{now_ns, run_unit, OpKind, OpRecord, Reply};
use std::collections::{BTreeMap, HashMap};
use std::sync::Barrier;

/// Slices of the timed window; `ops_s` is the median slice's rate, so one
/// stall (a scheduler hiccup, a slow fsync) does not move it.
const SLICES: usize = 20;

pub fn palette_of(mix: Mix) -> Vec<String> {
    match mix {
        Mix::Mixed => mixed_palette(),
        _ => QUERY_PALETTE.iter().map(|s| s.to_string()).collect(),
    }
}

/// One in how many units has its reply kept for the control to check. A tag
/// cycle costs the control what it cost the server (tens of milliseconds),
/// so the control replays only the sampled cycles; every cycle undoes
/// itself, and the final exports still have to match.
fn sample_every(mix: Mix) -> u64 {
    if mix == Mix::Tags {
        10
    } else {
        100
    }
}

/// What one client thread brings back.
struct ClientLog {
    /// Operations completed inside the timed window.
    records: Vec<OpRecord>,
    /// `(start, end, counted operations)` of every unit of the window.
    spans: Vec<(u64, u64, u32)>,
    /// Units run in all, warm-up included: the control replays this many.
    units: u64,
    /// Every operation attempted, warm-up included.
    tally: Tally,
    samples: HashMap<u64, Reply>,
    exports: Vec<Result<String, String>>,
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(spec, seed);
    let palette = palette_of(spec.mix);

    // Everything before the timed phase: corpus generation, cluster open,
    // inserts, index warm, listeners, connection dial.
    let ((corpus, served, clients), setup_s) = set_up(|| {
        let corpus = Corpus::generate(spec, seed);
        let served = Served::holding(&corpus, spec.fsync);
        let clients: Vec<_> = (0..CLIENTS).map(|_| served.client()).collect();
        (corpus, served, clients)
    });
    report.note(format!(
        "stream_hash={:016x} docs={} words={} fsync={} palette={}",
        stream_hash(seed, CLIENTS, &corpus.shapes, spec.mix, palette.len()),
        spec.docs,
        spec.words,
        spec.fsync_label(),
        palette.len()
    ));

    let barrier = Barrier::new(CLIENTS);
    let window_ns = (seconds * 1e9) as u64;
    let mut window_start = u64::MAX;
    let mut rss_after_warmup = f64::NAN;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (corpus, palette, barrier) = (&corpus, &palette, &barrier);
                scope.spawn(move || {
                    let mut gen =
                        OpGen::new(seed, c, CLIENTS, &corpus.shapes, spec.mix, palette.len());
                    let mut log = ClientLog {
                        records: Vec::new(),
                        spans: Vec::new(),
                        units: 0,
                        tally: Tally::default(),
                        samples: HashMap::new(),
                        exports: Vec::new(),
                    };
                    let every = sample_every(spec.mix);
                    let mut step = |log: &mut ClientLog, keep: bool| {
                        let unit = gen.next().expect("endless stream");
                        let ClientLog { records, tally, .. } = log;
                        let (began, mut counted) = (now_ns(), 0);
                        let reply = run_unit(&mut client, &unit, palette, None, &mut |r| {
                            tally.check(r.ok);
                            counted += u32::from(counts(spec, r.kind));
                            if keep {
                                records.push(r);
                            }
                        });
                        if keep {
                            log.spans.push((began, now_ns(), counted));
                        }
                        if let Some(reply) = reply.filter(|_| sampled(log.units, every)) {
                            log.samples.insert(log.units, reply);
                        }
                        log.units += 1;
                    };
                    for _ in 0..spec.warm_units {
                        step(&mut log, false);
                    }
                    // `peak_rss_mb` is read here, after a fixed amount of
                    // work, so that a faster program (more operations in the
                    // window, more dead arena nodes) does not read as fatter.
                    barrier.wait();
                    let rss = peak_rss_mb();
                    barrier.wait();
                    let start = now_ns();
                    while now_ns() - start < window_ns {
                        step(&mut log, true);
                    }
                    // Each client exports its own documents over the wire.
                    let per = corpus.docs.len() / CLIENTS;
                    log.exports = (c * per..(c + 1) * per)
                        .map(|d| {
                            client.router.export(client.docs.ids[d]).map_err(|e| e.to_string())
                        })
                        .collect();
                    (log, start, rss)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (log, start, rss) = h.join().expect("client thread");
                window_start = window_start.min(start);
                rss_after_warmup = rss;
                log
            })
            .collect()
    });
    let stats = served.cluster.stats();
    drop(served);

    // -- correctness, off the clock ------------------------------------
    let mut tally = Tally::default();
    let mut control = Control::holding(&corpus.docs);
    let mut exports = Vec::new();
    for (c, log) in logs.iter().enumerate() {
        tally.absorb(log.tally);
        let units = OpGen::new(seed, c, CLIENTS, &corpus.shapes, spec.mix, palette.len())
            .take(log.units as usize);
        let mut replayed = Tally::default();
        control.replay(units, &palette, &log.samples, &mut replayed);
        // Replayed edits re-count operations the clients already counted;
        // only their failures and the sampled comparisons are new.
        tally.attempted += log.samples.len() as u64;
        tally.failed += replayed.failed;
        exports.extend(log.exports.iter().cloned());
    }
    compare_exports(&exports, &control.exports(), &mut tally);

    // -- metrics ---------------------------------------------------------
    let mut by_kind: BTreeMap<OpKind, Vec<f64>> = BTreeMap::new();
    for r in logs.iter().flat_map(|l| &l.records) {
        by_kind.entry(r.kind).or_default().push(r.nanos as f64 / 1e3);
    }
    // A unit's operations are spread evenly over the time the unit took, so
    // a slice's count is not quantised by where unit boundaries fall.
    let mut slices = [0f64; SLICES];
    let slice_ns = window_ns as f64 / SLICES as f64;
    for &(began, ended, counted) in logs.iter().flat_map(|l| &l.spans) {
        let (a, b) = ((began - window_start) as f64, (ended - window_start) as f64);
        let first = (a / slice_ns) as usize;
        for (s, slice) in slices.iter_mut().enumerate().skip(first) {
            let (lo, hi) = (s as f64 * slice_ns, (s + 1) as f64 * slice_ns);
            if lo >= b {
                break;
            }
            *slice += f64::from(counted) * (b.min(hi) - a.max(lo)) / (b - a).max(1.0);
        }
    }
    let mut rates: Vec<f64> = slices.iter().map(|n| n / (slice_ns / 1e9)).collect();
    let timed_ops: usize = by_kind.values().map(Vec::len).sum();

    report.metric("ops_s", Value::new(median(&mut rates), "1/s"));
    for (kind, lat) in &mut by_kind {
        lat.sort_by(f64::total_cmp);
        let p50 = quantile_sorted(lat, 0.5);
        if *kind == spec.headline {
            report.metric("p50_us", Value::new(p50, "us"));
        }
        let mut line = format!("{}_p50_us={p50:.1} n={}", kind.name(), lat.len());
        // A p99 needs ten samples beyond it to mean anything.
        if lat.len() >= 1000 {
            line +=
                &format!(" {}_p99_us={:.1} (diagnostic)", kind.name(), quantile_sorted(lat, 0.99));
        }
        report.note(line);
    }
    report.metric("setup_s", Value::new(setup_s, "s"));
    report.metric("peak_rss_mb", Value::new(rss_after_warmup, "MB"));
    report.note(format!(
        "{}: {timed_ops} operations in {seconds} s; index_hit_rate={:.3} query_cache_hit_rate={:.3} \
         wal_appends={} wal_fsyncs={} edits_rejected={}",
        spec.counted,
        stats.index_hit_rate(),
        rate(stats.query_cache_hits, stats.query_cache_misses),
        stats.wal_appends,
        stats.wal_fsyncs,
        stats.edits_rejected,
    ));
    report.tally = tally;
    report
}

/// Does an operation of `kind` count towards the workload's `ops_s`?
/// Edits and queries each count; a tag cycle counts once, at its removal.
fn counts(spec: &Spec, kind: OpKind) -> bool {
    match spec.mix {
        Mix::Tags => kind == OpKind::TagRemove,
        _ => true,
    }
}

pub fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}
