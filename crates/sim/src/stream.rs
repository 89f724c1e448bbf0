//! Single-pass streaming predictor core.
//!
//! The classic evaluation loop ([`simulate_trace`](crate::simulate_trace))
//! runs *one* predictor over *one* trace; comparing N configurations means
//! decoding and walking the trace N times through `dyn ValuePredictor`
//! dispatch. This module restructures that hot path:
//!
//! * **One decode, many lanes.** [`stream_trace`] walks the trace once and
//!   feeds every [`StreamPredictor`] *lane* per record, using the fused
//!   [`access`](dfcm::ValuePredictor::access) overrides (a single table
//!   index computation per record per two-level predictor) behind enum —
//!   not `dyn` — dispatch.
//! * **Chunked runs with deterministic merge.** [`stream_trace_chunked`]
//!   produces the same result as one per-chunk [`RunStats`] merge in chunk
//!   order; [`stream_trace_file`] extends this to on-disk traces of any
//!   format (auto-detected), decoding chunks on worker threads while the
//!   (stateful) lanes consume them strictly in file order — bit-identical
//!   to a serial run, any thread count.
//! * **Lane shards.** Lanes share nothing but the records (the paper's §4
//!   runs every predictor in isolation), so with more than one thread the
//!   file paths split the lanes into contiguous, cost-balanced shards
//!   that run in parallel, and hand every shard each decoded chunk as one
//!   shared buffer. Every lane still sees every record in file order, and
//!   an observed run folds each lane's phase series on the lane's shard.
//! * **Flat memory at any trace size.** The file paths never materialize
//!   the trace: a bounded pipeline holds O(`threads`) compressed and
//!   decoded chunks at once, so a 100M-record v3 trace streams in a
//!   working set of a few chunks.
//!
//! Every path is differentially tested to be bit-identical to the
//! predict-then-update reference loop (`tests/stream_equiv.rs`).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::{mpsc, Arc};

use dfcm::{
    AccessOutcome, AliasClass, DfcmPredictor, FcmPredictor, LastValuePredictor, StorageCost,
    StridePredictor, TableStats, TwoDeltaStridePredictor, ValuePredictor,
};
use dfcm_obs::timeseries::LaneSeries;
use dfcm_obs::Obs;
use dfcm_trace::io::RawChunk;
use dfcm_trace::{Trace, TraceFormatError, TraceRecord, V3RawChunk, V2_CHUNK_RECORDS};

use crate::run::RunStats;

/// One lane of the streaming pass: a concrete predictor behind enum
/// dispatch.
///
/// The streaming core deliberately avoids `Box<dyn ValuePredictor>`: an
/// enum keeps the per-record dispatch a jump table the compiler can see
/// through (and lanes stay `Clone`, so a cold configuration can be
/// instantiated once and copied per benchmark). The enum covers the four
/// paper predictors plus two-delta stride; anything more exotic still
/// runs through the `dyn` path of [`simulate_trace`](crate::simulate_trace).
#[derive(Debug, Clone)]
pub enum StreamPredictor {
    /// Last value predictor (§2.1).
    Lvp(LastValuePredictor),
    /// Stride predictor (§2.2).
    Stride(StridePredictor),
    /// Two-delta stride predictor (§2.2).
    TwoDelta(TwoDeltaStridePredictor),
    /// Finite context method predictor (§2.3).
    Fcm(FcmPredictor),
    /// Differential FCM predictor (§3).
    Dfcm(DfcmPredictor),
}

macro_rules! for_each_lane {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            StreamPredictor::Lvp($p) => $body,
            StreamPredictor::Stride($p) => $body,
            StreamPredictor::TwoDelta($p) => $body,
            StreamPredictor::Fcm($p) => $body,
            StreamPredictor::Dfcm($p) => $body,
        }
    };
}

/// A predictor spec string that could not be parsed by
/// [`StreamPredictor::parse_spec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

impl StreamPredictor {
    /// Parses a lane from a spec string — the grammar shared by the CLI,
    /// the serving daemon, and snapshot files:
    ///
    /// `lvp:B | stride:B | 2delta:B | fcm:L1:L2 | dfcm:L1:L2`
    ///
    /// where each field is a power-of-two table-size exponent. The
    /// canonical inverse is [`spec`](StreamPredictor::spec).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for unknown predictor names, missing or
    /// non-numeric fields, trailing fields, and configurations the
    /// underlying builders reject.
    pub fn parse_spec(spec: &str) -> Result<StreamPredictor, SpecError> {
        let parts: Vec<&str> = spec.split(':').collect();
        let bits = |i: usize| -> Result<u32, SpecError> {
            parts
                .get(i)
                .ok_or_else(|| SpecError(format!("`{spec}`: missing table-size field {i}")))?
                .parse()
                .map_err(|_| SpecError(format!("`{spec}`: bad table size")))
        };
        let arity = |n: usize| -> Result<(), SpecError> {
            if parts.len() > n {
                return Err(SpecError(format!(
                    "`{spec}`: expected {} table-size field(s)",
                    n - 1
                )));
            }
            Ok(())
        };
        let build_err = |e: dfcm::ConfigError| SpecError(format!("`{spec}`: {e}"));
        // Table exponents above 30 are rejected by the builders; lvp and
        // the stride predictors assert instead, so pre-check here to keep
        // parse_spec panic-free on arbitrary input.
        let checked = |b: u32| -> Result<u32, SpecError> {
            if b > 30 {
                return Err(SpecError(format!(
                    "`{spec}`: table exponent {b} exceeds 30"
                )));
            }
            Ok(b)
        };
        match parts[0] {
            "lvp" => {
                arity(2)?;
                Ok(LastValuePredictor::new(checked(bits(1)?)?).into())
            }
            "stride" => {
                arity(2)?;
                Ok(StridePredictor::new(checked(bits(1)?)?).into())
            }
            "2delta" => {
                arity(2)?;
                Ok(TwoDeltaStridePredictor::new(checked(bits(1)?)?).into())
            }
            "fcm" => {
                arity(3)?;
                Ok(FcmPredictor::builder()
                    .l1_bits(bits(1)?)
                    .l2_bits(bits(2)?)
                    .build()
                    .map_err(build_err)?
                    .into())
            }
            "dfcm" => {
                arity(3)?;
                Ok(DfcmPredictor::builder()
                    .l1_bits(bits(1)?)
                    .l2_bits(bits(2)?)
                    .build()
                    .map_err(build_err)?
                    .into())
            }
            other => Err(SpecError(format!(
                "unknown predictor `{other}` (use lvp|stride|2delta|fcm|dfcm)"
            ))),
        }
    }

    /// The canonical spec string for this lane's configuration:
    /// `parse_spec(lane.spec())` reconstructs an identically configured
    /// cold lane. Snapshots store this string so a restored session can
    /// rebuild its predictor before loading the state words.
    pub fn spec(&self) -> String {
        match self {
            StreamPredictor::Lvp(p) => format!("lvp:{}", p.entries().trailing_zeros()),
            StreamPredictor::Stride(p) => format!("stride:{}", p.entries().trailing_zeros()),
            StreamPredictor::TwoDelta(p) => format!("2delta:{}", p.entries().trailing_zeros()),
            StreamPredictor::Fcm(p) => format!("fcm:{}:{}", p.l1_bits(), p.l2_bits()),
            StreamPredictor::Dfcm(p) => format!("dfcm:{}:{}", p.l1_bits(), p.l2_bits()),
        }
    }

    /// Serializes the lane's mutable table state as a flat word vector
    /// (see the per-predictor `state_words` methods for layouts).
    pub fn state_words(&self) -> Vec<u64> {
        for_each_lane!(self, p => p.state_words())
    }

    /// Restores state captured by
    /// [`state_words`](StreamPredictor::state_words) into an identically
    /// configured lane (same [`spec`](StreamPredictor::spec)).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::State`](dfcm::ConfigError) when the words
    /// do not fit this configuration or encode an illegal table state;
    /// the lane is left unchanged.
    pub fn load_state_words(&mut self, words: &[u64]) -> Result<(), dfcm::ConfigError> {
        for_each_lane!(self, p => p.load_state_words(words))
    }

    /// Relative per-record cost of this lane, the weight lane shards are
    /// balanced by (from measured per-family lane throughput: a DFCM
    /// access costs about three last-value accesses).
    fn shard_cost(&self) -> u32 {
        match self {
            StreamPredictor::Lvp(_) => 1,
            StreamPredictor::Stride(_) | StreamPredictor::TwoDelta(_) | StreamPredictor::Fcm(_) => {
                2
            }
            StreamPredictor::Dfcm(_) => 3,
        }
    }
}

impl ValuePredictor for StreamPredictor {
    fn predict(&mut self, pc: u64) -> u64 {
        for_each_lane!(self, p => p.predict(pc))
    }

    fn update(&mut self, pc: u64, actual: u64) {
        for_each_lane!(self, p => p.update(pc, actual))
    }

    #[inline]
    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        for_each_lane!(self, p => p.access(pc, actual))
    }

    fn storage(&self) -> StorageCost {
        for_each_lane!(self, p => p.storage())
    }

    fn name(&self) -> String {
        for_each_lane!(self, p => p.name())
    }

    fn enable_table_stats(&mut self) {
        for_each_lane!(self, p => p.enable_table_stats())
    }

    fn table_stats(&self) -> Option<TableStats> {
        for_each_lane!(self, p => p.table_stats())
    }

    fn last_alias_class(&self) -> Option<AliasClass> {
        for_each_lane!(self, p => p.last_alias_class())
    }
}

impl From<LastValuePredictor> for StreamPredictor {
    fn from(p: LastValuePredictor) -> Self {
        StreamPredictor::Lvp(p)
    }
}

impl From<StridePredictor> for StreamPredictor {
    fn from(p: StridePredictor) -> Self {
        StreamPredictor::Stride(p)
    }
}

impl From<TwoDeltaStridePredictor> for StreamPredictor {
    fn from(p: TwoDeltaStridePredictor) -> Self {
        StreamPredictor::TwoDelta(p)
    }
}

impl From<FcmPredictor> for StreamPredictor {
    fn from(p: FcmPredictor) -> Self {
        StreamPredictor::Fcm(p)
    }
}

impl From<DfcmPredictor> for StreamPredictor {
    fn from(p: DfcmPredictor) -> Self {
        StreamPredictor::Dfcm(p)
    }
}

/// Streams a slice of records through every lane once, observing each
/// outcome.
///
/// The observer receives `(lane index, record index, outcome)` for every
/// (record, lane) pair — the hook the differential tests use to compare
/// per-record behaviour against the reference loop. [`stream_trace`]
/// passes a no-op closure that the optimizer erases.
pub fn stream_records_with<F>(
    lanes: &mut [StreamPredictor],
    records: &[TraceRecord],
    mut observe: F,
) -> Vec<RunStats>
where
    F: FnMut(usize, usize, AccessOutcome),
{
    let block = RunStats {
        predictions: records.len() as u64,
        correct: 0,
    };
    let mut stats = vec![block; lanes.len()];
    for (ri, record) in records.iter().enumerate() {
        for (li, lane) in lanes.iter_mut().enumerate() {
            let outcome = lane.access(record.pc, record.value);
            stats[li].correct += u64::from(outcome.correct);
            observe(li, ri, outcome);
        }
    }
    stats
}

/// Runs every lane over `trace` in a single pass: one walk of the records
/// feeds all lanes, and each lane's fused `access` computes its table
/// index once per record.
///
/// Returns one [`RunStats`] per lane, in lane order. Bit-identical to
/// running [`simulate_trace`](crate::simulate_trace) once per lane.
pub fn stream_trace(lanes: &mut [StreamPredictor], trace: &Trace) -> Vec<RunStats> {
    stream_records_with(lanes, trace.records(), |_, _, _| {})
}

/// [`stream_trace`], processing the trace in chunks of `chunk_records`
/// and merging the per-chunk [`RunStats`] in chunk order.
///
/// Because the lanes are stateful and consume chunks strictly in order,
/// the result is bit-identical to [`stream_trace`]; the chunk granularity
/// only decides how often stats are folded (exercising the saturating
/// [`RunStats::merge`]). Use [`dfcm_trace::V2_CHUNK_RECORDS`] to mirror
/// the on-disk chunking.
///
/// # Panics
///
/// Panics if `chunk_records` is 0.
pub fn stream_trace_chunked(
    lanes: &mut [StreamPredictor],
    trace: &Trace,
    chunk_records: usize,
) -> Vec<RunStats> {
    let mut totals = vec![RunStats::default(); lanes.len()];
    for chunk in trace.chunks(chunk_records) {
        let chunk_stats = stream_records_with(lanes, chunk, |_, _, _| {});
        for (total, part) in totals.iter_mut().zip(chunk_stats) {
            total.merge(part);
        }
    }
    totals
}

/// Outcome of a [`stream_trace_file`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFileReport {
    /// Per-lane statistics, in lane order.
    pub stats: Vec<RunStats>,
    /// Records streamed (per lane).
    pub records: u64,
    /// Chunks the file was decoded in.
    pub chunks: usize,
}

/// A chunk the streaming pipeline can ship to a decode worker: both the
/// v2 and v3 raw-chunk types, which decode independently of their
/// neighbours, and already-decoded v1 record blocks.
trait StreamChunk: Send {
    fn decode_records(self) -> io::Result<Vec<TraceRecord>>;
}

impl StreamChunk for RawChunk {
    fn decode_records(self) -> io::Result<Vec<TraceRecord>> {
        self.decode()
    }
}

impl StreamChunk for V3RawChunk {
    fn decode_records(self) -> io::Result<Vec<TraceRecord>> {
        self.decode()
    }
}

/// An already-decoded record block: v1 files have no independently
/// decodable chunks, so they load fully and stream in blocks of these.
struct OwnedChunk(Vec<TraceRecord>);

impl StreamChunk for OwnedChunk {
    fn decode_records(self) -> io::Result<Vec<TraceRecord>> {
        Ok(self.0)
    }
}

/// A loaded v1 trace as [`STREAM_CHUNK_RECORDS`]-record blocks.
fn v1_chunks(trace: &Trace) -> impl Iterator<Item = io::Result<OwnedChunk>> + Send + '_ {
    trace
        .chunks(STREAM_CHUNK_RECORDS)
        .map(|c| Ok(OwnedChunk(c.to_vec())))
}

/// Streams a trace file through the lanes on up to `threads` threads,
/// auto-detecting the format from the magic.
///
/// `threads` bounds both stages of the pass. It is the number of decode
/// workers, and the most lane shards the lanes are split into: with
/// `threads > 1`, contiguous runs of lanes, balanced by a fixed
/// per-kind cost, run in parallel — the first on the calling thread,
/// each other on a thread of its own. `0` or `1` decodes and runs every
/// lane inline on the calling thread.
///
/// The chunked formats (`DFCMTRC2`, and the compressed `DFCMTRC3`)
/// decode chunk by chunk, independently and in any order — but
/// predictor lanes are stateful, so decoded chunks are *consumed*
/// strictly in file order (a reorder buffer bridges the two), and every
/// shard receives every chunk in that order. Each lane's per-chunk
/// stats are merged in chunk order. The result — stats and lane state —
/// is therefore bit-identical to a fully serial run, and across formats
/// over the same records, regardless of `threads`.
///
/// Memory stays flat at any trace size on the chunked formats: the file
/// is read one chunk at a time, at most O(`threads`) chunks are in
/// flight (each v3 decode allocation capped by the bomb guards), and
/// the shards share each decoded chunk rather than copying it. The
/// unchunked legacy v1 format is fully loaded and then streamed in
/// [`STREAM_CHUNK_RECORDS`] chunks.
///
/// # Errors
///
/// Propagates open/read errors and chunk corruption
/// ([`dfcm_trace::TraceFormatError`] wrapped in `InvalidData`, including
/// [`dfcm_trace::TraceFormatError::DecompressionBomb`] for v3 chunks
/// whose declared sizes no legitimate writer could produce, and
/// [`dfcm_trace::TraceFormatError::BadMagic`] for unrecognized files).
/// On a corrupt chunk the error reported is the lowest-indexed one,
/// again independent of thread scheduling; the lanes will have consumed
/// the intact chunks before it, and no chunk after it.
pub fn stream_trace_file<P: AsRef<Path>>(
    path: P,
    lanes: &mut [StreamPredictor],
    threads: usize,
) -> io::Result<StreamFileReport> {
    stream_trace_file_observed(path, lanes, threads, &Obs::disabled(), false)
}

/// Decoded chunks a spawned lane shard may have queued before the
/// consuming thread blocks: one chunk of slack absorbs per-chunk load
/// differences between shards. Shards share each chunk, so the shard
/// stage holds at most this many plus two distinct chunks, however many
/// shards there are.
const SHARD_CHANNEL_DEPTH: usize = 1;

/// Splits `lanes` into at most `threads` contiguous shards whose largest
/// summed [`shard_cost`](StreamPredictor::shard_cost) is as small as a
/// contiguous split allows. Fewer shards come back when more would not
/// shorten the slowest one.
fn lane_shards(lanes: &mut [StreamPredictor], threads: usize) -> Vec<&mut [StreamPredictor]> {
    let costs: Vec<u32> = lanes.iter().map(StreamPredictor::shard_cost).collect();
    // Greedy contiguous fill under `limit`, as shard lengths.
    let fill = |limit: u32| {
        let mut lens = Vec::new();
        let (mut len, mut load) = (0usize, 0u32);
        for &c in &costs {
            if len > 0 && load + c > limit {
                lens.push(len);
                (len, load) = (0, 0);
            }
            len += 1;
            load += c;
        }
        if len > 0 {
            lens.push(len);
        }
        lens
    };
    let floor = costs.iter().copied().max().unwrap_or(0);
    let total: u32 = costs.iter().sum();
    let limit = (floor..=total)
        .find(|&limit| fill(limit).len() <= threads.max(1))
        .unwrap_or(total);
    let mut shards = Vec::new();
    let mut rest = lanes;
    for len in fill(limit) {
        let (shard, tail) = rest.split_at_mut(len);
        shards.push(shard);
        rest = tail;
    }
    shards
}

/// Class-slot labels of the phase-resolved time series: the paper's five
/// aliasing classes in [`AliasClass::ALL`] order, plus an `unclassified`
/// slot for lanes that do not run an alias analyzer (lvp, stride,
/// 2delta, or fcm/dfcm without table stats).
pub const SERIES_CLASS_LABELS: &[&str] =
    &["l1", "hash", "l2_priv", "l2_pc", "none", "unclassified"];

/// Maps a predictor's per-access alias class onto its series slot.
fn class_slot(class: Option<AliasClass>) -> usize {
    class
        .and_then(|c| AliasClass::ALL.iter().position(|x| *x == c))
        .unwrap_or(SERIES_CLASS_LABELS.len() - 1)
}

/// One lane shard of a file pass: a contiguous run of lanes, their
/// running totals and — when observed — their phase series, folded at
/// `offset`, the global prediction index of the shard's next record.
struct Shard<'a> {
    lanes: &'a mut [StreamPredictor],
    stats: Vec<RunStats>,
    /// One series per lane when observed, empty otherwise.
    series: Vec<LaneSeries>,
    offset: u64,
}

impl<'a> Shard<'a> {
    fn new(lanes: &'a mut [StreamPredictor], observed: bool) -> Self {
        let series = if observed {
            lanes
                .iter()
                .map(|lane| LaneSeries::with_defaults(&lane.spec(), SERIES_CLASS_LABELS))
                .collect()
        } else {
            Vec::new()
        };
        Shard {
            stats: vec![RunStats::default(); lanes.len()],
            lanes,
            series,
            offset: 0,
        }
    }

    /// Folds one decoded chunk into the shard's lanes. An observed shard
    /// also feeds every outcome to its lane's series, record-major, and
    /// samples each lane's table occupancy at the chunk boundary.
    fn fold(&mut self, records: &[TraceRecord], obs: &Obs) {
        if self.series.is_empty() {
            let chunk_stats = stream_records_with(self.lanes, records, |_, _, _| {});
            for (total, part) in self.stats.iter_mut().zip(chunk_stats) {
                total.merge(part);
            }
            return;
        }
        for (ri, record) in records.iter().enumerate() {
            let index = self.offset + ri as u64;
            let lanes = self.lanes.iter_mut().zip(&mut self.stats);
            for ((lane, stats), series) in lanes.zip(&mut self.series) {
                let outcome = lane.access(record.pc, record.value);
                stats.predictions += 1;
                stats.correct += u64::from(outcome.correct);
                series.record(
                    index,
                    record.pc,
                    class_slot(lane.last_alias_class()),
                    outcome.predicted,
                    record.value,
                );
            }
        }
        self.offset += records.len() as u64;
        for (lane, series) in self.lanes.iter().zip(&self.series) {
            if let Some(ts) = lane.table_stats() {
                for t in &ts.tables {
                    obs.sample(
                        "table_occupancy_percent",
                        &[("spec", series.spec()), ("table", t.name)],
                        t.occupancy_percent(),
                    );
                }
            }
        }
    }
}

/// Records a lane's end-of-run table/alias/accuracy aggregates under its
/// canonical spec.
fn record_lane_metrics(obs: &Obs, lane: &StreamPredictor, spec: &str, stats: RunStats) {
    if let Some(ts) = lane.table_stats() {
        for t in &ts.tables {
            let labels = [("spec", spec), ("table", t.name)];
            obs.gauge("predictor_table_entries", &labels, t.entries as f64);
            obs.gauge("predictor_table_occupied", &labels, t.occupied as f64);
            obs.add("predictor_table_writes_total", &labels, t.writes);
            obs.add("predictor_table_overwrites_total", &labels, t.overwrites);
        }
        if let Some(alias) = &ts.alias {
            for class in AliasClass::ALL {
                let labels = [("spec", spec), ("class", class.label())];
                obs.add("predictor_alias_total", &labels, alias.class_total(class));
                obs.add(
                    "predictor_alias_correct_total",
                    &labels,
                    alias.class_correct(class),
                );
            }
        }
    }
    obs.gauge("eval_accuracy", &[("spec", spec)], stats.accuracy());
}

/// Drives a chunk iterator through the pipeline into the lanes — the one
/// file loop, observed or not — merging each lane's per-chunk stats in
/// chunk order.
///
/// The consuming thread runs the first lane shard itself. Every further
/// shard runs on its own scoped thread over every decoded chunk,
/// received in file order as one [`Arc`] all shards share. With one
/// shard (`threads <= 1`, or lanes too few or cheap to split) no shard
/// thread exists and every lane runs inline.
///
/// A lane's series depends only on its own outcomes, so with `obs`
/// enabled each shard folds its own lanes' series and samples their
/// occupancy; once every shard has joined, the per-lane aggregates and
/// series are recorded in lane order.
fn stream_file_chunks<C, I>(
    chunks: I,
    lanes: &mut [StreamPredictor],
    threads: usize,
    obs: &Obs,
    table_stats: bool,
) -> io::Result<StreamFileReport>
where
    C: StreamChunk,
    I: Iterator<Item = io::Result<C>> + Send,
{
    let observed = obs.is_enabled();
    if observed && table_stats {
        for lane in lanes.iter_mut() {
            lane.enable_table_stats();
        }
    }
    let mut shards = lane_shards(lanes, threads).into_iter();
    let mut first = Shard::new(shards.next().unwrap_or_default(), observed);
    let mut records = 0u64;
    let chunk_count = std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut workers = Vec::new();
        for lanes in shards {
            let mut shard = Shard::new(lanes, observed);
            let (tx, rx) = mpsc::sync_channel::<Arc<Vec<TraceRecord>>>(SHARD_CHANNEL_DEPTH);
            senders.push(tx);
            workers.push(scope.spawn(move || {
                for chunk in rx {
                    shard.fold(&chunk, obs);
                }
                shard
            }));
        }
        let result = stream_chunk_pipeline(chunks, threads, |decoded| {
            records += decoded.len() as u64;
            let shared = Arc::new(decoded);
            for tx in &senders {
                // A send error means the shard died; its panic surfaces
                // at the join below.
                let _ = tx.send(Arc::clone(&shared));
            }
            first.fold(&shared, obs);
        });
        // Closing the channels lets every shard drain what it was sent —
        // exactly the chunks before any failed one — and stop.
        drop(senders);
        for worker in workers {
            match worker.join() {
                Ok(shard) => {
                    first.stats.extend(shard.stats);
                    first.series.extend(shard.series);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        result
    })?;
    let Shard { stats, series, .. } = first;
    // Unobserved runs carry no series, so this records nothing.
    for ((lane, lane_stats), lane_series) in lanes.iter().zip(&stats).zip(series) {
        record_lane_metrics(obs, lane, lane_series.spec(), *lane_stats);
        obs.record_series(lane_series);
    }
    Ok(StreamFileReport {
        stats,
        records,
        chunks: chunk_count,
    })
}

/// [`stream_trace_file`] with phase-resolved observability: when `obs`
/// is enabled, every lane folds a fixed-window accuracy/alias-class
/// series and a top-K per-PC misprediction tracker over the stream
/// (attached via [`Obs::record_series`], exported as `series.jsonl`),
/// per-table occupancy is sampled at every chunk boundary, and the final
/// table/alias/accuracy aggregates (`predictor_table_*`,
/// `predictor_alias_*`, `eval_accuracy`) are recorded under each lane's
/// canonical spec.
///
/// `table_stats` additionally enables each lane's table instrumentation
/// (occupancy tracking and, on fcm/dfcm, the §4.2 alias analyzer that
/// gives the series its per-class breakdown). Without it the fold is
/// cheaper and every access lands in the `unclassified` slot.
///
/// `threads` bounds decode workers and lane shards exactly as in
/// [`stream_trace_file`]; each shard folds its own lanes' series. Every
/// lane consumes the chunks strictly in file order regardless of
/// `threads`, so the exported series are bit-identical at any thread
/// count. With `obs` disabled this is exactly [`stream_trace_file`].
///
/// # Errors
///
/// As [`stream_trace_file`]. On an error nothing is recorded into `obs`
/// but the occupancy samples of the chunks consumed before it.
pub fn stream_trace_file_observed<P: AsRef<Path>>(
    path: P,
    lanes: &mut [StreamPredictor],
    threads: usize,
    obs: &Obs,
    table_stats: bool,
) -> io::Result<StreamFileReport> {
    let mut file = File::open(path)?;
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    file.seek(SeekFrom::Start(0))?;
    let reader = BufReader::new(file);
    match &magic {
        b"DFCMTRC2" => stream_file_chunks(
            dfcm_trace::v2_chunks(reader)?,
            lanes,
            threads,
            obs,
            table_stats,
        ),
        b"DFCMTRC3" => stream_file_chunks(
            dfcm_trace::v3_chunks(reader)?,
            lanes,
            threads,
            obs,
            table_stats,
        ),
        b"DFCMTRC1" => {
            let trace = Trace::read_from(reader)?;
            stream_file_chunks(v1_chunks(&trace), lanes, threads, obs, table_stats)
        }
        _ => Err(TraceFormatError::BadMagic { found: magic }.into()),
    }
}

/// Pulls chunks off `chunks` (a single reader thread owns the
/// underlying file), decodes them on `threads` workers, and hands each
/// decoded chunk's records to `consume` strictly in index order. Returns
/// the number of chunks consumed.
///
/// Memory is bounded by construction: the raw channels are
/// `sync_channel`s sized by the thread count, each worker holds its
/// decoded chunk until the consumer takes it (a rendezvous channel), and
/// the reorder buffer can only hold what the workers let past — so the
/// working set is O(threads) chunks no matter how large the file is or
/// how fast the reader outpaces the lanes.
///
/// The first error — a framing error from the iterator or the
/// lowest-indexed decode failure — is returned; `consume` never sees
/// chunks at or beyond a failed index.
fn stream_chunk_pipeline<C, I, F>(chunks: I, threads: usize, mut consume: F) -> io::Result<usize>
where
    C: StreamChunk,
    I: Iterator<Item = io::Result<C>> + Send,
    F: FnMut(Vec<TraceRecord>),
{
    if threads <= 1 {
        // True single-chunk working set: read, decode, consume, drop.
        let mut count = 0usize;
        for chunk in chunks {
            consume(chunk?.decode_records()?);
            count += 1;
        }
        return Ok(count);
    }

    // Reader -> workers: one bounded channel per worker, filled
    // round-robin. Per-worker channels (rather than one shared receiver)
    // keep the receivers owned by the worker threads, so every blocked
    // sender observes a disconnect the moment its peer exits — the
    // property the shutdown paths below rely on.
    let mut raw_txs = Vec::with_capacity(threads);
    let mut raw_rxs = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (tx, rx) = mpsc::sync_channel::<(usize, io::Result<C>)>(2);
        raw_txs.push(tx);
        raw_rxs.push(rx);
    }
    // Workers -> consumer: a rendezvous, so each worker holds at most its
    // one finished chunk. Buffering more decoded chunks here buys no
    // throughput (the consumer paces the pass) and only raises the
    // working set.
    let (dec_tx, dec_rx) = mpsc::sync_channel::<(usize, io::Result<Vec<TraceRecord>>)>(0);

    std::thread::scope(|scope| {
        // Move the receiver into the scope so it drops on *any* exit from
        // this closure (including the early error return below) — that
        // unparks workers blocked on a full channel, letting the scope
        // join them instead of deadlocking.
        let dec_rx = dec_rx;

        scope.spawn(move || {
            let mut chunks = chunks;
            let mut i = 0usize;
            loop {
                let Some(item) = chunks.next() else { break };
                // A framing error poisons the source; ship it as the
                // final item so the consumer reports it in order.
                let last = item.is_err();
                if raw_txs[i % raw_txs.len()].send((i, item)).is_err() {
                    break; // consumer bailed; stop reading
                }
                i += 1;
                if last {
                    break;
                }
            }
        });
        for raw_rx in raw_rxs {
            let dec_tx = dec_tx.clone();
            scope.spawn(move || {
                while let Ok((i, chunk)) = raw_rx.recv() {
                    let decoded = chunk.and_then(|c| c.decode_records());
                    if dec_tx.send((i, decoded)).is_err() {
                        break; // consumer bailed
                    }
                }
            });
        }
        drop(dec_tx);

        // In-order consumption with a reorder buffer: chunks may arrive
        // out of order, but lane state only ever advances on the chunk it
        // is waiting for. The buffer stays O(threads): workers can only
        // run ahead by what the bounded channels admit.
        let mut pending: BTreeMap<usize, io::Result<Vec<TraceRecord>>> = BTreeMap::new();
        let mut want = 0usize;
        loop {
            let entry = match pending.remove(&want) {
                Some(entry) => entry,
                None => match dec_rx.recv() {
                    Ok((i, decoded)) if i == want => decoded,
                    Ok((i, decoded)) => {
                        pending.insert(i, decoded);
                        continue;
                    }
                    // Every worker exited: the stream is exhausted.
                    // Indices are contiguous, so nothing can be pending.
                    Err(_) => break,
                },
            };
            consume(entry?);
            want += 1;
        }
        debug_assert!(pending.is_empty());
        Ok(want)
        // Dropping `dec_rx` here unblocks any worker parked on a full
        // channel; workers dropping their raw receivers unblock the
        // reader; the scope then joins all of them.
    })
}

/// The default chunk granularity for in-memory chunked streaming: the
/// on-disk v2 chunk size.
pub const STREAM_CHUNK_RECORDS: usize = V2_CHUNK_RECORDS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_trace;
    use dfcm_trace::atomic_write;

    fn lanes() -> Vec<StreamPredictor> {
        vec![
            LastValuePredictor::new(6).into(),
            StridePredictor::new(6).into(),
            TwoDeltaStridePredictor::new(6).into(),
            FcmPredictor::builder()
                .l1_bits(6)
                .l2_bits(10)
                .build()
                .unwrap()
                .into(),
            DfcmPredictor::builder()
                .l1_bits(6)
                .l2_bits(10)
                .build()
                .unwrap()
                .into(),
        ]
    }

    fn mixed_trace(n: u64) -> Trace {
        (0..n)
            .map(|i| {
                TraceRecord::new(
                    4 * (i % 37),
                    (i / 5).wrapping_mul(7).wrapping_sub(i % 3) ^ (i / 101),
                )
            })
            .collect()
    }

    #[test]
    fn stream_matches_simulate_trace_per_lane() {
        let trace = mixed_trace(4000);
        let mut streamed = lanes();
        let stats = stream_trace(&mut streamed, &trace);
        for (i, mut reference) in lanes().into_iter().enumerate() {
            let expected = simulate_trace(&mut reference, &trace);
            assert_eq!(stats[i], expected, "{}", reference.name());
        }
    }

    #[test]
    fn chunked_stream_is_bit_identical_for_any_chunk_size() {
        let trace = mixed_trace(3000);
        let mut serial = lanes();
        let expected = stream_trace(&mut serial, &trace);
        for chunk in [1, 7, 64, 1000, 3000, 5000] {
            let mut chunked = lanes();
            assert_eq!(
                stream_trace_chunked(&mut chunked, &trace, chunk),
                expected,
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn empty_trace_streams_to_zero_stats() {
        let mut l = lanes();
        let stats = stream_trace(&mut l, &Trace::new());
        assert!(stats.iter().all(|s| *s == RunStats::default()));
    }

    #[test]
    fn observer_sees_every_outcome() {
        let trace = mixed_trace(50);
        let mut l = lanes();
        let mut seen = 0usize;
        let stats = stream_records_with(&mut l, trace.records(), |li, ri, out| {
            assert!(li < 5 && ri < 50);
            assert_eq!(out.correct, out.predicted == trace.records()[ri].value);
            seen += 1;
        });
        assert_eq!(seen, 5 * 50);
        assert_eq!(stats.len(), 5);
    }

    #[test]
    fn file_streaming_matches_in_memory_for_any_thread_count() {
        // Long enough for several on-disk chunks.
        let trace = mixed_trace(2 * V2_CHUNK_RECORDS as u64 + 999);
        let mut buffer = Vec::new();
        trace.write_v2_to(&mut buffer, 42).unwrap();
        let path = std::env::temp_dir().join("dfcm_stream_v2_test.trc");
        atomic_write(&path, &buffer).unwrap();

        let mut reference = lanes();
        let expected = stream_trace(&mut reference, &trace);
        for threads in [0, 1, 2, 5] {
            let mut l = lanes();
            let report = stream_trace_file(&path, &mut l, threads).unwrap();
            assert_eq!(report.stats, expected, "{threads} threads");
            assert_eq!(report.records, trace.len() as u64);
            assert_eq!(report.chunks, 3);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_streaming_reports_corruption() {
        let trace = mixed_trace(V2_CHUNK_RECORDS as u64 + 10);
        let mut buffer = Vec::new();
        trace.write_v2_to(&mut buffer, 0).unwrap();
        let target = buffer.len() / 2;
        buffer[target] ^= 0x40;
        let path = std::env::temp_dir().join("dfcm_stream_v2_corrupt_test.trc");
        atomic_write(&path, &buffer).unwrap();
        for threads in [1, 4] {
            let err = stream_trace_file(&path, &mut lanes(), threads).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{threads} threads");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v3_file_streaming_matches_v2_and_memory_for_any_thread_count() {
        use dfcm_trace::{TraceFormat, V3_CHUNK_RECORDS};
        let trace = mixed_trace(2 * V3_CHUNK_RECORDS as u64 + 333);
        let dir = std::env::temp_dir();
        let v2_path = dir.join("dfcm_stream_v3_test.v2.trc");
        let v3_path = dir.join("dfcm_stream_v3_test.v3.trc");
        trace
            .save_with(&v2_path, TraceFormat::V2 { seed: 9 })
            .unwrap();
        trace
            .save_with(&v3_path, TraceFormat::V3 { seed: 9 })
            .unwrap();

        let mut reference = lanes();
        let expected = stream_trace(&mut reference, &trace);
        let mut v2_lanes = lanes();
        let v2_report = stream_trace_file(&v2_path, &mut v2_lanes, 2).unwrap();
        assert_eq!(v2_report.stats, expected);
        for threads in [0, 1, 2, 5] {
            let mut l = lanes();
            let report = stream_trace_file(&v3_path, &mut l, threads).unwrap();
            assert_eq!(report.stats, expected, "{threads} threads");
            assert_eq!(report.records, trace.len() as u64);
            assert_eq!(report.chunks, 3);
        }
        let _ = std::fs::remove_file(&v2_path);
        let _ = std::fs::remove_file(&v3_path);
    }

    #[test]
    fn v3_file_streaming_reports_corruption() {
        use dfcm_trace::TraceFormat;
        let trace = mixed_trace(dfcm_trace::V3_CHUNK_RECORDS as u64 + 10);
        let mut buffer = Vec::new();
        trace
            .write_with(&mut buffer, TraceFormat::V3 { seed: 0 })
            .unwrap();
        // Flip a byte deep in the first chunk's compressed payload.
        let target = buffer.len() / 4;
        buffer[target] ^= 0x40;
        let path = std::env::temp_dir().join("dfcm_stream_v3_corrupt_test.trc");
        atomic_write(&path, &buffer).unwrap();
        for threads in [1, 4] {
            let err = stream_trace_file(&path, &mut lanes(), threads).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{threads} threads");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_file_sniffer_handles_v1_v2_and_garbage() {
        use dfcm_trace::TraceFormat;
        let trace = mixed_trace(2500);
        let dir = std::env::temp_dir();
        let mut expected_lanes = lanes();
        let expected = stream_trace(&mut expected_lanes, &trace);

        for (name, format) in [
            ("dfcm_sniff_test.v1.trc", TraceFormat::V1),
            ("dfcm_sniff_test.v2.trc", TraceFormat::V2 { seed: 1 }),
            ("dfcm_sniff_test.v3.trc", TraceFormat::V3 { seed: 1 }),
        ] {
            let path = dir.join(name);
            trace.save_with(&path, format).unwrap();
            let mut l = lanes();
            let report = stream_trace_file(&path, &mut l, 2).unwrap();
            assert_eq!(report.stats, expected, "{name}");
            assert_eq!(report.records, trace.len() as u64, "{name}");
            let _ = std::fs::remove_file(&path);
        }

        let garbage = dir.join("dfcm_sniff_test.bad.trc");
        atomic_write(&garbage, b"NOTATRACEFILE???").unwrap();
        let err = stream_trace_file(&garbage, &mut lanes(), 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&garbage);
    }

    #[test]
    fn spec_strings_round_trip() {
        for spec in [
            "lvp:12",
            "stride:14",
            "2delta:14",
            "fcm:12:10",
            "dfcm:16:12",
        ] {
            let lane = StreamPredictor::parse_spec(spec).unwrap();
            assert_eq!(lane.spec(), spec);
            assert_eq!(
                StreamPredictor::parse_spec(&lane.spec()).unwrap().name(),
                lane.name(),
                "{spec}"
            );
        }
    }

    #[test]
    fn bad_specs_are_rejected_not_panicked() {
        for spec in [
            "magic:3",
            "fcm:12",
            "lvp",
            "lvp:x",
            "lvp:99",
            "stride:12:9",
            "dfcm:12:10:8",
            "dfcm:99:12",
            "dfcm:a:12",
            "",
        ] {
            assert!(StreamPredictor::parse_spec(spec).is_err(), "{spec:?}");
        }
    }

    #[test]
    fn lane_state_round_trips_through_spec_and_words() {
        let trace = mixed_trace(500);
        for mut lane in lanes() {
            stream_trace(std::slice::from_mut(&mut lane), &trace);
            let mut restored = StreamPredictor::parse_spec(&lane.spec()).unwrap();
            restored.load_state_words(&lane.state_words()).unwrap();
            assert_eq!(restored.state_words(), lane.state_words());
            // Mismatched configurations are rejected.
            let mut other = StreamPredictor::parse_spec("lvp:3").unwrap();
            assert!(other.load_state_words(&lane.state_words()).is_err() || lane.spec() == "lvp:3");
        }
    }

    /// Renders the series a full observed streaming run of `path`
    /// produces at the given decode thread count.
    fn observed_series_jsonl(path: &Path, threads: usize) -> (Vec<String>, Vec<RunStats>) {
        let obs = Obs::enabled();
        let mut l = lanes();
        let report = stream_trace_file_observed(path, &mut l, threads, &obs, true).unwrap();
        let lines = dfcm_obs::timeseries::render_series(&obs.series_snapshot());
        (lines, report.stats)
    }

    #[test]
    fn observed_series_bit_identical_at_1_2_4_8_threads() {
        let trace = mixed_trace(2 * V2_CHUNK_RECORDS as u64 + 999);
        let dir = std::env::temp_dir();
        for (name, format) in [
            (
                "dfcm_series_det.v2.trc",
                dfcm_trace::TraceFormat::V2 { seed: 3 },
            ),
            (
                "dfcm_series_det.v3.trc",
                dfcm_trace::TraceFormat::V3 { seed: 3 },
            ),
        ] {
            let path = dir.join(name);
            trace.save_with(&path, format).unwrap();
            let (reference_lines, reference_stats) = observed_series_jsonl(&path, 1);
            assert!(!reference_lines.is_empty());
            for threads in [2, 4, 8] {
                let (lines, stats) = observed_series_jsonl(&path, threads);
                assert_eq!(lines, reference_lines, "{name} at {threads} threads");
                assert_eq!(stats, reference_stats, "{name} at {threads} threads");
            }
            // The observed run's stats stay bit-identical to the
            // unobserved path.
            let mut plain = lanes();
            let plain_report = stream_trace_file(&path, &mut plain, 2).unwrap();
            assert_eq!(plain_report.stats, reference_stats, "{name}");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Nine lanes with distinct specs: enough cost to split into two,
    /// three and more shards.
    fn wide_lanes() -> Vec<StreamPredictor> {
        let mut l = lanes();
        for spec in ["lvp:8", "stride:8", "fcm:8:12", "dfcm:8:12"] {
            l.push(StreamPredictor::parse_spec(spec).unwrap());
        }
        l
    }

    /// Everything an observed run of `path` exports that must not depend
    /// on the thread count: the rendered series, every `predictor_*` and
    /// `eval_accuracy` metric, and each (spec, table)'s occupancy samples
    /// in order.
    type ObservedExports = (Vec<String>, Vec<String>, BTreeMap<String, Vec<f64>>);

    fn observed_exports(path: &Path, threads: usize) -> (ObservedExports, StreamFileReport) {
        let obs = Obs::enabled();
        let mut l = wide_lanes();
        let report = stream_trace_file_observed(path, &mut l, threads, &obs, true).unwrap();
        let series = obs.series_snapshot();
        for lane_series in &series {
            // Windows tile the global prediction index: every window but
            // the last is full.
            let windows = lane_series.series().windows();
            let window_len = lane_series.series().window_len();
            assert_eq!(windows.len() as u64, report.records.div_ceil(window_len));
            let (last, full) = windows.split_last().unwrap();
            assert!(full.iter().all(|w| w.predictions == window_len));
            assert_eq!(
                last.predictions,
                report.records - full.len() as u64 * window_len
            );
        }
        let lines = dfcm_obs::timeseries::render_series(&series);
        let (events, metrics) = obs.snapshot();
        let metrics: Vec<String> = metrics
            .metrics
            .iter()
            .filter(|(k, _)| k.name.starts_with("predictor_") || k.name == "eval_accuracy")
            .map(|(k, v)| format!("{k:?} {v:?}"))
            .collect();
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for event in events {
            if let dfcm_obs::span::Event::Sample {
                name,
                labels,
                value,
                ..
            } = event
            {
                assert_eq!(name, "table_occupancy_percent");
                samples
                    .entry(format!("{labels:?}"))
                    .or_default()
                    .push(value);
            }
        }
        ((lines, metrics, samples), report)
    }

    #[test]
    fn sharded_observed_exports_identical_at_1_2_3_8_threads() {
        assert_eq!(lane_shards(&mut wide_lanes(), 1).len(), 1);
        assert_eq!(lane_shards(&mut wide_lanes(), 2).len(), 2);
        assert_eq!(lane_shards(&mut wide_lanes(), 3).len(), 3);
        assert!(lane_shards(&mut wide_lanes(), 8).len() > 3);
        // Three chunks, the last one partial.
        let trace = mixed_trace(2 * V2_CHUNK_RECORDS as u64 + 999);
        let path = std::env::temp_dir().join("dfcm_series_sharded.v2.trc");
        trace
            .save_with(&path, dfcm_trace::TraceFormat::V2 { seed: 4 })
            .unwrap();
        let (reference, reference_report) = observed_exports(&path, 1);
        let (lines, metrics, samples) = &reference;
        assert!(!lines.is_empty());
        assert!(metrics.len() > wide_lanes().len(), "{metrics:?}");
        // Every (spec, table) pair is sampled once per chunk, the final
        // partial chunk included.
        assert!(!samples.is_empty());
        for (key, values) in samples {
            assert_eq!(values.len(), reference_report.chunks, "{key}");
        }
        for threads in [2, 3, 8] {
            let (exports, report) = observed_exports(&path, threads);
            assert_eq!(exports, reference, "{threads} threads");
            assert_eq!(report, reference_report, "{threads} threads");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observed_corrupt_middle_chunk_reports_lowest_and_records_no_series() {
        let trace = mixed_trace(4 * V2_CHUNK_RECORDS as u64);
        let mut buffer = Vec::new();
        trace.write_v2_to(&mut buffer, 2).unwrap();
        // Flip a payload byte in the middle of chunks 1 and 2.
        for at in [3, 5] {
            let target = buffer.len() * at / 8;
            buffer[target] ^= 0x40;
        }
        let path = std::env::temp_dir().join("dfcm_series_corrupt_middle.v2.trc");
        atomic_write(&path, &buffer).unwrap();
        for threads in [1, 2, 5] {
            let obs = Obs::enabled();
            let err = stream_trace_file_observed(&path, &mut wide_lanes(), threads, &obs, true)
                .unwrap_err();
            assert!(
                matches!(
                    TraceFormatError::classify(&err),
                    Some(TraceFormatError::ChunkCrcMismatch { chunk: 1, .. })
                ),
                "{threads} threads: {err}"
            );
            assert!(obs.series_snapshot().is_empty(), "{threads} threads");
            let (_, metrics) = obs.snapshot();
            assert!(metrics.is_empty(), "{threads} threads: {metrics:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observed_series_reconciles_with_aggregates() {
        let trace = mixed_trace(V2_CHUNK_RECORDS as u64 + 123);
        let path = std::env::temp_dir().join("dfcm_series_reconcile.v2.trc");
        let mut buffer = Vec::new();
        trace.write_v2_to(&mut buffer, 5).unwrap();
        atomic_write(&path, &buffer).unwrap();

        let obs = Obs::enabled();
        let mut l = lanes();
        let report = stream_trace_file_observed(&path, &mut l, 2, &obs, true).unwrap();
        let series = obs.series_snapshot();
        assert_eq!(series.len(), l.len());
        for (lane_series, (lane, stats)) in series.iter().zip(l.iter().zip(&report.stats)) {
            // Series totals equal the lane's RunStats exactly.
            let totals = lane_series.series().totals();
            assert_eq!(totals.predictions, stats.predictions, "{}", lane.spec());
            assert_eq!(totals.correct, stats.correct, "{}", lane.spec());
            // The top-K tracker saw exactly the mispredictions, and its
            // table counts sum back to that total.
            let misses = stats.predictions - stats.correct;
            assert_eq!(lane_series.top().total(), misses, "{}", lane.spec());
            let ranked = lane_series.top().ranked();
            assert_eq!(
                ranked.iter().map(|e| e.count).sum::<u64>(),
                misses,
                "{}",
                lane.spec()
            );
            // Where the lane classifies accesses, the per-class series
            // totals equal the analyzer's aggregate breakdown.
            if let Some(alias) = lane.table_stats().and_then(|ts| ts.alias) {
                for (slot, class) in AliasClass::ALL.iter().enumerate() {
                    assert_eq!(
                        totals.class_total[slot],
                        alias.class_total(*class),
                        "{} class {}",
                        lane.spec(),
                        class.label()
                    );
                    assert_eq!(
                        totals.class_correct[slot],
                        alias.class_correct(*class),
                        "{} class {}",
                        lane.spec(),
                        class.label()
                    );
                }
                assert_eq!(totals.class_total[5], 0, "{}", lane.spec());
            } else {
                // Unclassified lanes put everything in the last slot.
                assert_eq!(totals.class_total[5], totals.predictions, "{}", lane.spec());
            }
        }
        // Disabled obs is the plain path: no series recorded, stats
        // bit-identical.
        let disabled = Obs::disabled();
        let mut plain = lanes();
        let plain_report =
            stream_trace_file_observed(&path, &mut plain, 2, &disabled, true).unwrap();
        assert_eq!(plain_report, report);
        assert!(disabled.series_snapshot().is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
