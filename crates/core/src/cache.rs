//! Versioned on-disk autotune cache.
//!
//! Profiled winners survive the process: a compilation session saves its
//! tuning cache to disk and the next session (same architecture, same
//! cache schema) starts with every previously-profiled workload already
//! resolved — zero measurements, zero template generation. This is the
//! persistence half of Bolt's "sample programs are reusable across models
//! and workloads" claim (Section 3.2.2).
//!
//! # Format
//!
//! A plain-text, line-oriented format (no external serialization crates):
//!
//! ```text
//! bolt-tune-cache v2 arch=<fnv1a-64 of the architecture description> name=<arch name>
//! gemm <problem> | <epilogue> | <winning config> <time-bits> <candidates>
//! conv <problem> <dtype> | <epilogue> | <winning config> <time-bits> <candidates>
//! checksum <fnv1a-64 of the entry lines> <entry count>
//! ```
//!
//! Floats are encoded as IEEE-754 bit patterns in hex so the round trip
//! is exact. The header carries two invalidation axes:
//!
//! * **Schema version** ([`SCHEMA_VERSION`]) — bumped whenever the entry
//!   layout changes; old files are skipped, not misparsed.
//! * **Architecture fingerprint** ([`arch_fingerprint`]) — a hash of
//!   every datasheet number of the target [`GpuArch`]. A cache tuned for
//!   one GPU (or for a re-calibrated model of the same GPU) is invalid
//!   for another: the winning configs would be stale.
//!
//! A version or architecture mismatch is *not* an error — the cache is
//! an optimization, so [`load`] warns on stderr and reports zero entries,
//! and the session re-measures and overwrites the file on save.
//!
//! # Corruption handling
//!
//! The trailing `checksum` footer covers every entry line, so a torn or
//! bit-flipped file (crash mid-write on a filesystem without atomic
//! rename, disk corruption, a truncated copy) is *detected* rather than
//! misparsed. Structural corruption — missing/mismatched footer, an
//! undecodable entry, a malformed header — does not abort the session:
//! [`load`] **quarantines** the file (renames it to `<name>.corrupt`,
//! preserving the evidence), warns on stderr, and reports zero entries.
//! The session warm-starts empty and the next save rebuilds a clean
//! cache at the original path. Only real I/O failures (permissions,
//! unreadable file) propagate as errors.

use std::io;
use std::path::Path;

use bolt_cutlass::{BiasMode, GemmConfig, GemmProblem, TileShape};
use bolt_gpu_sim::{GpuArch, Pipeline};
use bolt_tensor::conv_ref::Conv2dProblem;
use bolt_tensor::{Activation, DType, MatrixLayout};

use crate::profiler::{BoltProfiler, Epilogue2, Key, ProfiledKernel};

/// Cache schema version; bump on any change to the entry layout.
/// v2 added the `checksum` footer line.
pub const SCHEMA_VERSION: u32 = 2;

/// FNV-1a fingerprint of an architecture's full datasheet description.
///
/// Hashes every field of [`GpuArch`] — including the calibrated
/// [`bolt_gpu_sim::ModelParams`] — **by explicit label and value**, with
/// floats encoded as IEEE-754 bit patterns. Editing either the hardware
/// numbers or the model calibration invalidates caches tuned under the
/// old numbers, but a pure refactor of the struct (derive changes, field
/// reordering, a tweaked `Debug` impl) does not: the fingerprint is
/// pinned to this function, not to `#[derive(Debug)]` output. The
/// preset values are locked by a golden test below.
pub fn arch_fingerprint(arch: &GpuArch) -> u64 {
    use std::fmt::Write as _;
    let p = &arch.params;
    let mut d = String::with_capacity(640);
    let _ = write!(
        d,
        "name={};cc={}.{};sm_count={};clock_ghz={:016x};cuda_cores_per_sm={};\
         tensor_cores_per_sm={};sfu_per_sm={};fp16_tensor_tflops={:016x};\
         fp32_cuda_tflops={:016x};dram_bw_gbps={:016x};l2_bytes={};\
         smem_bw_gbps={:016x};smem_per_sm={};max_smem_per_block={};\
         regs_per_sm={};max_regs_per_thread={};max_threads_per_sm={};\
         max_threads_per_block={};max_blocks_per_sm={};warp_size={};\
         launch_overhead_us={:016x};dram_peak_fraction={:016x};\
         latency_hiding_warps={};overlap_leak={:016x};wave_tail_us={:016x};\
         sfu_ops_per_clock_per_sm={:016x}",
        arch.name,
        arch.compute_capability.0,
        arch.compute_capability.1,
        arch.sm_count,
        arch.clock_ghz.to_bits(),
        arch.cuda_cores_per_sm,
        arch.tensor_cores_per_sm,
        arch.sfu_per_sm,
        arch.fp16_tensor_tflops.to_bits(),
        arch.fp32_cuda_tflops.to_bits(),
        arch.dram_bw_gbps.to_bits(),
        arch.l2_bytes,
        arch.smem_bw_gbps.to_bits(),
        arch.smem_per_sm,
        arch.max_smem_per_block,
        arch.regs_per_sm,
        arch.max_regs_per_thread,
        arch.max_threads_per_sm,
        arch.max_threads_per_block,
        arch.max_blocks_per_sm,
        arch.warp_size,
        p.launch_overhead_us.to_bits(),
        p.dram_peak_fraction.to_bits(),
        p.latency_hiding_warps,
        p.overlap_leak.to_bits(),
        p.wave_tail_us.to_bits(),
        p.sfu_ops_per_clock_per_sm.to_bits(),
    );
    fnv1a(d.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes the profiler's resolved entries to `path`, creating parent
/// directories as needed. Output is sorted, so identical caches produce
/// byte-identical files.
///
/// The write is **atomic**: the cache is staged in a uniquely-named
/// sibling temp file and `rename`d into place, so a reader (or a crash)
/// never observes a torn file — concurrent savers race benignly, with
/// the last complete rename winning. This matters once online tuning
/// saves the cache after every background compile while other
/// processes load it.
pub(crate) fn save(profiler: &BoltProfiler, path: &Path) -> io::Result<()> {
    let mut out = TuneShard::from_profiler(profiler).to_string_canonical();

    // Chaos: simulate a crash mid-write by truncating the staged bytes.
    // The checksum footer is what lets the next load catch this.
    if let Some(keep) = crate::faults::truncate(crate::faults::FaultSite::CacheSave, out.len()) {
        out.truncate(keep);
    }

    atomic_write(path, &out)
}

/// Stages `contents` in a uniquely-named sibling temp file and `rename`s
/// it into place, creating parent directories as needed: readers and
/// crashes never observe a torn file, and concurrent writers race
/// benignly with the last complete rename winning.
fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    // Unique per process *and* per call, so concurrent savers never
    // stage into the same temp file.
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "bolt-tune-cache".into());
    tmp_name.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Loads entries from `path` into the profiler's cache, returning the
/// number of entries merged.
///
/// * Version or architecture mismatches warn and return `Ok(0)` — the
///   file is left in place (it is valid, just not for us).
/// * Structural corruption (bad header, undecodable entry, missing or
///   mismatched `checksum` footer) **quarantines** the file: it is
///   renamed to `<name>.corrupt`, a warning is printed, and `Ok(0)` is
///   returned so the session warm-starts empty and rebuilds the cache
///   on its next save. Nothing is merged from a corrupt file — entries
///   are only installed after the whole file validates.
/// * Real I/O failures (unreadable file, permissions) propagate.
pub(crate) fn load(profiler: &BoltProfiler, path: &Path) -> io::Result<usize> {
    let text = std::fs::read_to_string(path)?;
    match parse(profiler, &text, path) {
        Ok(Parsed::Mismatch) => Ok(0),
        Ok(Parsed::Entries(entries)) => {
            let count = entries.len();
            for (key, kernel) in entries {
                profiler.insert_entry(key, kernel);
            }
            Ok(count)
        }
        Err(reason) => quarantine(path, &reason),
    }
}

enum Parsed {
    /// Valid file for a different schema version or architecture.
    Mismatch,
    /// Fully validated entries, ready to merge.
    Entries(Vec<(Key, ProfiledKernel)>),
}

/// A parsed single-shard cache header: schema version string, arch
/// fingerprint, and the advisory arch name (empty for files written
/// before the `name=` token existed). Unknown trailing tokens are
/// ignored, so the header can grow without a schema bump.
struct CacheHeader {
    version: String,
    arch: u64,
    name: String,
}

fn parse_header(head: &str) -> Result<CacheHeader, io::Error> {
    let mut tokens = head.split_whitespace();
    if tokens.next() != Some("bolt-tune-cache") {
        return Err(invalid("not a bolt tune cache"));
    }
    let version = tokens
        .next()
        .ok_or_else(|| invalid("missing cache version"))?
        .to_string();
    let arch_hex = tokens
        .next()
        .and_then(|t| t.strip_prefix("arch="))
        .ok_or_else(|| invalid("missing arch fingerprint"))?;
    let arch =
        u64::from_str_radix(arch_hex, 16).map_err(|_| invalid("malformed arch fingerprint"))?;
    // The name may contain spaces, so it is everything after `name=`.
    let name = head
        .split_once(" name=")
        .map(|(_, n)| n.trim().to_string())
        .unwrap_or_default();
    Ok(CacheHeader {
        version,
        arch,
        name,
    })
}

/// Walks the non-empty lines after a header up to the `checksum` footer
/// and validates the footer against them; any `Err` means structural
/// corruption.
fn checked_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Vec<&'a str>, io::Error> {
    let mut kept = Vec::new();
    let mut body = String::new();
    let mut footer_line = None;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        if footer_line.is_some() {
            return Err(invalid("lines after checksum footer"));
        }
        if line.starts_with("checksum ") {
            footer_line = Some(line);
            continue;
        }
        body.push_str(line);
        body.push('\n');
        kept.push(line);
    }
    let footer_line = footer_line.ok_or_else(|| invalid("missing checksum footer (truncated?)"))?;
    if footer_line != footer(&body, kept.len()) {
        return Err(invalid("checksum footer does not match contents"));
    }
    Ok(kept)
}

/// Decodes the footer-checked entry lines after a single-shard header;
/// any `Err` means structural corruption.
fn parse_entry_block<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(Key, ProfiledKernel)>, io::Error> {
    checked_lines(lines)?.into_iter().map(decode_line).collect()
}

fn decode_line(line: &str) -> Result<(Key, ProfiledKernel), io::Error> {
    decode_entry(line).ok_or_else(|| invalid(format!("corrupt tune entry: {line:?}")))
}

/// Validates `text` end to end; any `Err` means structural corruption.
fn parse(profiler: &BoltProfiler, text: &str, path: &Path) -> Result<Parsed, io::Error> {
    let mut lines = text.lines();
    let head = lines.next().ok_or_else(|| invalid("empty tune cache"))?;
    let header = parse_header(head)?;
    if header.version != format!("v{SCHEMA_VERSION}") {
        eprintln!(
            "warning: ignoring tune cache {}: schema {} (expected v{})",
            path.display(),
            header.version,
            SCHEMA_VERSION
        );
        return Ok(Parsed::Mismatch);
    }
    if header.arch != arch_fingerprint(profiler.arch()) {
        eprintln!(
            "warning: ignoring tune cache {}: tuned for a different architecture",
            path.display()
        );
        return Ok(Parsed::Mismatch);
    }
    Ok(Parsed::Entries(parse_entry_block(lines)?))
}

/// The integrity footer covering the newline-joined entry `body`.
fn footer(body: &str, count: usize) -> String {
    format!("checksum {:016x} {count}", fnv1a(body.as_bytes()))
}

/// Renames a structurally corrupt cache aside to `<name>.corrupt` so the
/// evidence survives while the original path is freed for a rebuild.
fn quarantine(path: &Path, reason: &io::Error) -> io::Result<usize> {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "bolt-tune-cache".into());
    name.push(".corrupt");
    let target = path.with_file_name(name);
    match std::fs::rename(path, &target) {
        Ok(()) => eprintln!(
            "warning: tune cache {} is corrupt ({reason}); quarantined to {} — \
             continuing with an empty cache, it will be rebuilt on the next save",
            path.display(),
            target.display()
        ),
        Err(rename_err) => eprintln!(
            "warning: tune cache {} is corrupt ({reason}) and could not be quarantined \
             ({rename_err}); continuing with an empty cache",
            path.display()
        ),
    }
    Ok(0)
}

// ---------------------------------------------------------------------------
// Shards and bundles: the shippable multi-arch store
// ---------------------------------------------------------------------------

/// One architecture's worth of tuned winners, decoupled from a live
/// profiler — the unit `bolt-tune` packs, merges, and ships. A shard is
/// what [`save`] writes for a single arch; a [`TuneBundle`] holds one
/// shard per architecture fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneShard {
    arch: u64,
    /// Advisory arch name (e.g. `"Tesla T4"`); empty when the source
    /// file predates the `name=` header token.
    name: String,
    entries: Vec<(Key, ProfiledKernel)>,
}

impl TuneShard {
    /// The architecture fingerprint this shard was tuned for.
    pub fn arch_fingerprint(&self) -> u64 {
        self.arch
    }

    /// The advisory architecture name (may be empty for old files).
    pub fn arch_name(&self) -> &str {
        &self.name
    }

    /// Human-readable identity: the name when known, else the
    /// fingerprint in hex.
    pub fn describe(&self) -> String {
        if self.name.is_empty() {
            format!("arch {:016x}", self.arch)
        } else {
            format!("{} ({:016x})", self.name, self.arch)
        }
    }

    /// Number of tuned entries in the shard.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the shard holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn from_profiler(profiler: &BoltProfiler) -> TuneShard {
        let mut shard = TuneShard {
            arch: arch_fingerprint(profiler.arch()),
            name: profiler.arch().name.clone(),
            entries: profiler.entries(),
        };
        shard.sort();
        shard
    }

    pub(crate) fn entries(&self) -> &[(Key, ProfiledKernel)] {
        &self.entries
    }

    /// Reads a single-shard cache file **strictly**: a missing file,
    /// wrong schema version, or structural corruption is an error, never
    /// a silent empty result — this is the tooling/shipping path, where
    /// an ignored file would hide a fleet misconfiguration.
    pub fn read(path: &Path) -> io::Result<TuneShard> {
        let text = std::fs::read_to_string(path)?;
        let mut lines = text.lines();
        let head = lines.next().ok_or_else(|| invalid("empty tune cache"))?;
        let header = parse_header(head)?;
        if header.version != format!("v{SCHEMA_VERSION}") {
            return Err(invalid(format!(
                "schema {} (this build reads v{SCHEMA_VERSION})",
                header.version
            )));
        }
        let mut shard = TuneShard {
            arch: header.arch,
            name: header.name,
            entries: parse_entry_block(lines)?,
        };
        shard.sort();
        Ok(shard)
    }

    /// Writes the shard as a standalone single-arch cache file — the
    /// inverse of [`TuneShard::read`], used by `bolt-tune extract` to
    /// pull one architecture back out of a packed bundle. The output is
    /// a regular v2 cache any profiler of the matching arch can load.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, &self.to_string_canonical())
    }

    /// Serializes the shard as a single-arch cache file: header, entry
    /// lines in canonical order, `checksum` footer.
    fn to_string_canonical(&self) -> String {
        // The trailing `name=` token is advisory (diagnostics for
        // `bolt-tune inspect`); readers key off the fingerprint and
        // ignore unknown header tokens, so adding it did not bump the
        // schema version.
        let mut out = format!(
            "bolt-tune-cache v{SCHEMA_VERSION} arch={:016x} name={}\n",
            self.arch, self.name
        );
        let mut lines = self.encoded_lines();
        lines.sort_unstable();
        let mut body = String::new();
        for line in &lines {
            body.push_str(line);
            body.push('\n');
        }
        out.push_str(&body);
        out.push_str(&footer(&body, lines.len()));
        out.push('\n');
        out
    }

    /// Merges `other` into this shard, keeping the **faster winner** per
    /// workload key (strictly lower simulated time replaces; ties keep
    /// the incumbent). Entries for new keys are appended. Both shards
    /// must describe the same architecture — merging across arches is a
    /// caller bug, checked by [`TuneBundle::absorb`].
    pub fn merge(&mut self, other: &TuneShard) {
        debug_assert_eq!(self.arch, other.arch, "cross-arch shard merge");
        if self.name.is_empty() && !other.name.is_empty() {
            self.name = other.name.clone();
        }
        for (key, kernel) in &other.entries {
            match self.entries.iter_mut().find(|(k, _)| k == key) {
                Some((_, incumbent)) => {
                    if kernel.time_us < incumbent.time_us {
                        *incumbent = *kernel;
                    }
                }
                None => self.entries.push((*key, *kernel)),
            }
        }
        self.sort();
    }

    /// Canonical entry order (sorted encoded lines), so identical shards
    /// serialize to byte-identical files.
    fn sort(&mut self) {
        self.entries
            .sort_by_cached_key(|(key, kernel)| encode_entry(key, kernel));
    }

    fn encoded_lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|(key, kernel)| encode_entry(key, kernel))
            .collect()
    }
}

/// Bundle schema version; independent of the per-shard entry schema
/// ([`SCHEMA_VERSION`]), which governs the entry lines inside.
pub const BUNDLE_VERSION: u32 = 1;

/// A multi-architecture tune bundle: one [`TuneShard`] per arch
/// fingerprint, packed into a single shippable file.
///
/// # Format
///
/// ```text
/// bolt-tune-bundle v1 entries=v2
/// shard arch=<fnv1a-64> entries=<count> name=<arch name>
/// <entry lines, same codec as the single-shard cache>
/// shard ...
/// checksum <fnv1a-64 of every line above, after the header> <line count>
/// ```
///
/// Writing is deterministic — shards sorted by (name, fingerprint),
/// entries in canonical order — so pack → ship → load → re-pack round
/// trips **bit-identically**, and the trailing checksum covers every
/// shard and entry line so torn copies are detected, not misparsed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneBundle {
    shards: Vec<TuneShard>,
}

impl TuneBundle {
    /// An empty bundle.
    pub fn new() -> TuneBundle {
        TuneBundle::default()
    }

    /// The shards, in canonical (name, fingerprint) order.
    pub fn shards(&self) -> &[TuneShard] {
        &self.shards
    }

    /// The shard tuned for `arch_fingerprint`, if the bundle has one.
    pub fn shard_for(&self, arch_fingerprint: u64) -> Option<&TuneShard> {
        self.shards.iter().find(|s| s.arch == arch_fingerprint)
    }

    /// Total tuned entries across every shard.
    pub fn total_entries(&self) -> usize {
        self.shards.iter().map(TuneShard::len).sum()
    }

    /// Absorbs a shard: merged into the existing shard of the same
    /// architecture (keeping the faster winner per key,
    /// [`TuneShard::merge`]) or added as a new shard.
    pub fn absorb(&mut self, shard: TuneShard) {
        match self.shards.iter_mut().find(|s| s.arch == shard.arch) {
            Some(existing) => existing.merge(&shard),
            None => self.shards.push(shard),
        }
        self.sort();
    }

    /// Absorbs every shard of another bundle.
    pub fn absorb_bundle(&mut self, other: TuneBundle) {
        for shard in other.shards {
            self.absorb(shard);
        }
    }

    fn sort(&mut self) {
        self.shards
            .sort_by(|a, b| (&a.name, a.arch).cmp(&(&b.name, b.arch)));
    }

    /// Reads a bundle file **strictly** (same rules as
    /// [`TuneShard::read`]: corruption and version skew are errors).
    pub fn read(path: &Path) -> io::Result<TuneBundle> {
        let text = std::fs::read_to_string(path)?;
        let mut lines = text.lines();
        let head = lines.next().ok_or_else(|| invalid("empty tune bundle"))?;
        let mut tokens = head.split_whitespace();
        if tokens.next() != Some("bolt-tune-bundle") {
            return Err(invalid("not a bolt tune bundle"));
        }
        match tokens.next() {
            Some(v) if v == format!("v{BUNDLE_VERSION}") => {}
            Some(v) => {
                return Err(invalid(format!(
                    "bundle schema {v} (this build reads v{BUNDLE_VERSION})"
                )))
            }
            None => return Err(invalid("missing bundle version")),
        }

        // Validate the global checksum before interpreting any section.
        let section_lines = checked_lines(lines)?;

        let mut bundle = TuneBundle::new();
        let mut current: Option<(TuneShard, usize)> = None;
        for line in section_lines {
            if let Some(rest) = line.strip_prefix("shard ") {
                if let Some((shard, expected)) = current.take() {
                    finish_shard(&mut bundle, shard, expected)?;
                }
                let arch_hex = rest
                    .split_whitespace()
                    .find_map(|t| t.strip_prefix("arch="))
                    .ok_or_else(|| invalid("shard line missing arch fingerprint"))?;
                let arch = u64::from_str_radix(arch_hex, 16)
                    .map_err(|_| invalid("malformed shard arch fingerprint"))?;
                let expected = rest
                    .split_whitespace()
                    .find_map(|t| t.strip_prefix("entries="))
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| invalid("shard line missing entry count"))?;
                let name = rest
                    .split_once("name=")
                    .map(|(_, n)| n.trim().to_string())
                    .unwrap_or_default();
                current = Some((
                    TuneShard {
                        arch,
                        name,
                        entries: Vec::with_capacity(expected),
                    },
                    expected,
                ));
            } else {
                let (shard, _) = current
                    .as_mut()
                    .ok_or_else(|| invalid("entry line before any shard header"))?;
                shard.entries.push(decode_line(line)?);
            }
        }
        if let Some((shard, expected)) = current.take() {
            finish_shard(&mut bundle, shard, expected)?;
        }
        Ok(bundle)
    }

    /// Reads either a bundle **or** a single-shard cache file, wrapping
    /// the latter as a one-shard bundle — so `bolt-tune pack` accepts
    /// both per-arch shards and previously packed bundles as inputs.
    pub fn read_any(path: &Path) -> io::Result<TuneBundle> {
        let first = {
            let text = std::fs::read_to_string(path)?;
            text.lines().next().unwrap_or_default().to_string()
        };
        if first.starts_with("bolt-tune-bundle") {
            TuneBundle::read(path)
        } else {
            let shard = TuneShard::read(path)?;
            let mut bundle = TuneBundle::new();
            bundle.absorb(shard);
            Ok(bundle)
        }
    }

    /// Serializes the bundle to its canonical byte representation.
    pub fn to_string_canonical(&self) -> String {
        let mut canonical = self.clone();
        canonical.sort();
        let mut body = String::new();
        let mut count = 0usize;
        for shard in &canonical.shards {
            body.push_str(&format!(
                "shard arch={:016x} entries={} name={}\n",
                shard.arch,
                shard.len(),
                shard.name
            ));
            count += 1;
            for line in shard.encoded_lines() {
                body.push_str(&line);
                body.push('\n');
                count += 1;
            }
        }
        let mut out = format!("bolt-tune-bundle v{BUNDLE_VERSION} entries=v{SCHEMA_VERSION}\n");
        out.push_str(&body);
        out.push_str(&footer(&body, count));
        out.push('\n');
        out
    }

    /// Writes the bundle atomically (temp file + rename), creating
    /// parent directories as needed. Deterministic: the same shards
    /// always produce byte-identical files.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, &self.to_string_canonical())
    }
}

fn finish_shard(bundle: &mut TuneBundle, mut shard: TuneShard, expected: usize) -> io::Result<()> {
    if shard.entries.len() != expected {
        return Err(invalid(format!(
            "shard {} declares {expected} entries but carries {}",
            shard.describe(),
            shard.entries.len()
        )));
    }
    shard.sort();
    bundle.absorb(shard);
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry codec
// ---------------------------------------------------------------------------

fn encode_entry(key: &Key, kernel: &ProfiledKernel) -> String {
    let mut s = String::new();
    match key {
        Key::Gemm(p, ep) => {
            s.push_str(&format!(
                "gemm {} {} {} {} {} {} {}",
                p.m,
                p.n,
                p.k,
                p.batch,
                dtype_str(p.element),
                layout_str(p.layout_a),
                layout_str(p.layout_b),
            ));
            push_epilogue(&mut s, ep);
        }
        Key::Conv(p, ep, element) => {
            s.push_str(&format!(
                "conv {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                p.n,
                p.h,
                p.w,
                p.c,
                p.k,
                p.r,
                p.s,
                p.stride.0,
                p.stride.1,
                p.padding.0,
                p.padding.1,
                p.dilation.0,
                p.dilation.1,
                dtype_str(*element),
            ));
            push_epilogue(&mut s, ep);
        }
    }
    let c = &kernel.config;
    s.push_str(&format!(
        " | {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {:016x} {}",
        c.threadblock.m,
        c.threadblock.n,
        c.threadblock.k,
        c.warp.m,
        c.warp.n,
        c.warp.k,
        c.instruction.m,
        c.instruction.n,
        c.instruction.k,
        c.stages,
        c.swizzle,
        c.alignment_a,
        c.alignment_b,
        c.alignment_c,
        pipeline_str(c.pipeline),
        c.split_k,
        kernel.time_us.to_bits(),
        kernel.candidates,
    ));
    s
}

fn push_epilogue(s: &mut String, ep: &Epilogue2) {
    s.push_str(&format!(
        " | {} {} {:08x} {:08x} {}",
        activation_str(ep.activation),
        bias_str(ep.bias),
        ep.alpha,
        ep.beta,
        ep.reduction,
    ));
}

fn decode_entry(line: &str) -> Option<(Key, ProfiledKernel)> {
    let mut t = line.split_whitespace().filter(|tok| *tok != "|");
    let key = match t.next()? {
        "gemm" => {
            let problem = GemmProblem {
                m: next_usize(&mut t)?,
                n: next_usize(&mut t)?,
                k: next_usize(&mut t)?,
                batch: next_usize(&mut t)?,
                element: parse_dtype(t.next()?)?,
                layout_a: parse_layout(t.next()?)?,
                layout_b: parse_layout(t.next()?)?,
            };
            Key::Gemm(problem, parse_epilogue(&mut t)?)
        }
        "conv" => {
            let problem = Conv2dProblem {
                n: next_usize(&mut t)?,
                h: next_usize(&mut t)?,
                w: next_usize(&mut t)?,
                c: next_usize(&mut t)?,
                k: next_usize(&mut t)?,
                r: next_usize(&mut t)?,
                s: next_usize(&mut t)?,
                stride: (next_usize(&mut t)?, next_usize(&mut t)?),
                padding: (next_usize(&mut t)?, next_usize(&mut t)?),
                dilation: (next_usize(&mut t)?, next_usize(&mut t)?),
            };
            let element = parse_dtype(t.next()?)?;
            Key::Conv(problem, parse_epilogue(&mut t)?, element)
        }
        _ => return None,
    };
    let config = GemmConfig {
        threadblock: TileShape::new(
            next_usize(&mut t)?,
            next_usize(&mut t)?,
            next_usize(&mut t)?,
        ),
        warp: TileShape::new(
            next_usize(&mut t)?,
            next_usize(&mut t)?,
            next_usize(&mut t)?,
        ),
        instruction: TileShape::new(
            next_usize(&mut t)?,
            next_usize(&mut t)?,
            next_usize(&mut t)?,
        ),
        stages: next_usize(&mut t)?,
        swizzle: t.next()?.parse().ok()?,
        alignment_a: next_usize(&mut t)?,
        alignment_b: next_usize(&mut t)?,
        alignment_c: next_usize(&mut t)?,
        pipeline: parse_pipeline(t.next()?)?,
        split_k: next_usize(&mut t)?,
    };
    let time_us = f64::from_bits(u64::from_str_radix(t.next()?, 16).ok()?);
    let candidates = next_usize(&mut t)?;
    if t.next().is_some() {
        return None; // trailing garbage
    }
    Some((
        key,
        ProfiledKernel {
            config,
            time_us,
            candidates,
        },
    ))
}

fn parse_epilogue<'a>(t: &mut impl Iterator<Item = &'a str>) -> Option<Epilogue2> {
    Some(Epilogue2 {
        activation: parse_activation(t.next()?)?,
        bias: parse_bias(t.next()?)?,
        alpha: u32::from_str_radix(t.next()?, 16).ok()?,
        beta: u32::from_str_radix(t.next()?, 16).ok()?,
        reduction: t.next()?.parse().ok()?,
    })
}

fn next_usize<'a>(t: &mut impl Iterator<Item = &'a str>) -> Option<usize> {
    t.next()?.parse().ok()
}

// Local name<->enum tables: the vendored serde is derive-only (offline
// build), so enum spelling is pinned here and guarded by the schema
// version above.

fn dtype_str(d: DType) -> &'static str {
    match d {
        DType::B1 => "b1",
        DType::I4 => "i4",
        DType::I8 => "i8",
        DType::I32 => "i32",
        DType::F16 => "f16",
        DType::Bf16 => "bf16",
        DType::Tf32 => "tf32",
        DType::F32 => "f32",
        DType::F64 => "f64",
    }
}

fn parse_dtype(s: &str) -> Option<DType> {
    Some(match s {
        "b1" => DType::B1,
        "i4" => DType::I4,
        "i8" => DType::I8,
        "i32" => DType::I32,
        "f16" => DType::F16,
        "bf16" => DType::Bf16,
        "tf32" => DType::Tf32,
        "f32" => DType::F32,
        "f64" => DType::F64,
        _ => return None,
    })
}

fn layout_str(l: MatrixLayout) -> &'static str {
    match l {
        MatrixLayout::RowMajor => "row",
        MatrixLayout::ColMajor => "col",
    }
}

fn parse_layout(s: &str) -> Option<MatrixLayout> {
    Some(match s {
        "row" => MatrixLayout::RowMajor,
        "col" => MatrixLayout::ColMajor,
        _ => return None,
    })
}

fn activation_str(a: Activation) -> &'static str {
    match a {
        Activation::Identity => "identity",
        Activation::ReLU => "relu",
        Activation::Gelu => "gelu",
        Activation::Hardswish => "hardswish",
        Activation::Softplus => "softplus",
        Activation::Sigmoid => "sigmoid",
        Activation::Silu => "silu",
    }
}

fn parse_activation(s: &str) -> Option<Activation> {
    Some(match s {
        "identity" => Activation::Identity,
        "relu" => Activation::ReLU,
        "gelu" => Activation::Gelu,
        "hardswish" => Activation::Hardswish,
        "softplus" => Activation::Softplus,
        "sigmoid" => Activation::Sigmoid,
        "silu" => Activation::Silu,
        _ => return None,
    })
}

fn bias_str(b: BiasMode) -> &'static str {
    match b {
        BiasMode::None => "none",
        BiasMode::PerColumn => "per-column",
        BiasMode::Full => "full",
    }
}

fn parse_bias(s: &str) -> Option<BiasMode> {
    Some(match s {
        "none" => BiasMode::None,
        "per-column" => BiasMode::PerColumn,
        "full" => BiasMode::Full,
        _ => return None,
    })
}

fn pipeline_str(p: Pipeline) -> &'static str {
    match p {
        Pipeline::TensorCore => "tensor-core",
        Pipeline::CudaCore => "cuda-core",
        Pipeline::Sfu => "sfu",
    }
}

fn parse_pipeline(s: &str) -> Option<Pipeline> {
    Some(match s {
        "tensor-core" => Pipeline::TensorCore,
        "cuda-core" => Pipeline::CudaCore,
        "sfu" => Pipeline::Sfu,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_cutlass::Epilogue;
    use bolt_tensor::Activation;

    fn sample_kernel() -> ProfiledKernel {
        ProfiledKernel {
            config: GemmConfig::turing_default(),
            time_us: 123.456_789,
            candidates: 24,
        }
    }

    #[test]
    fn gemm_entry_round_trips_exactly() {
        let ep = Epilogue::bias_activation(Activation::Gelu, DType::F16);
        let key = Key::Gemm(GemmProblem::fp16(1280, 3072, 768), (&ep).into());
        let kernel = sample_kernel();
        let line = encode_entry(&key, &kernel);
        let (k2, p2) = decode_entry(&line).expect("decodes");
        assert_eq!(k2, key);
        assert_eq!(p2, kernel);
    }

    #[test]
    fn conv_entry_round_trips_exactly_with_dtype() {
        let ep = Epilogue::linear(DType::F32);
        let problem = Conv2dProblem::new(32, 56, 56, 64, 64, 3, 3, (2, 2), (1, 1));
        for element in [DType::F16, DType::Bf16] {
            let key = Key::Conv(problem, (&ep).into(), element);
            let line = encode_entry(&key, &sample_kernel());
            let (k2, _) = decode_entry(&line).expect("decodes");
            assert_eq!(k2, key, "conv dtype must survive the round trip");
        }
    }

    #[test]
    fn corrupt_entries_are_rejected() {
        assert!(decode_entry("gemm 1 2 not-a-number").is_none());
        assert!(decode_entry("unknown-kind 1 2 3").is_none());
        let ep = Epilogue::linear(DType::F16);
        let key = Key::Gemm(GemmProblem::fp16(64, 64, 64), (&ep).into());
        let good = encode_entry(&key, &sample_kernel());
        assert!(decode_entry(&format!("{good} trailing")).is_none());
    }

    #[test]
    fn footer_is_deterministic_and_detects_tampering() {
        let ep = Epilogue::linear(DType::F16);
        let key = Key::Gemm(GemmProblem::fp16(64, 64, 64), (&ep).into());
        let line = encode_entry(&key, &sample_kernel());
        let body = format!("{line}\n");
        assert_eq!(footer(&body, 1), footer(&body, 1), "footer is pure");
        let mut flipped = body.clone().into_bytes();
        flipped[10] ^= 1;
        let flipped = String::from_utf8(flipped).unwrap();
        assert_ne!(
            footer(&body, 1),
            footer(&flipped, 1),
            "single-bit flip changes the checksum"
        );
        assert_ne!(footer(&body, 1), footer(&body, 2), "count is covered");
    }

    #[test]
    fn fingerprint_distinguishes_architectures() {
        let t4 = arch_fingerprint(&GpuArch::tesla_t4());
        let v100 = arch_fingerprint(&GpuArch::tesla_v100());
        let a100 = arch_fingerprint(&GpuArch::a100());
        assert_ne!(t4, v100);
        assert_ne!(t4, a100);
        assert_eq!(
            t4,
            arch_fingerprint(&GpuArch::tesla_t4()),
            "fingerprint is stable"
        );
    }

    /// Golden stability values for the three presets. These are pinned
    /// on purpose: the fingerprint keys every on-disk cache and every
    /// bundle shard, so it must only change when the *datasheet or
    /// calibration values* change — never from a refactor of `GpuArch`
    /// (derive changes, field reordering, `Debug` formatting). If this
    /// test fails without a deliberate preset edit, the fingerprint
    /// function regressed; if you did edit a preset, update its golden
    /// value here (old caches for that arch are then correctly invalid).
    #[test]
    fn fingerprint_golden_values_for_presets() {
        let t4 = arch_fingerprint(&GpuArch::tesla_t4());
        let v100 = arch_fingerprint(&GpuArch::tesla_v100());
        let a100 = arch_fingerprint(&GpuArch::a100());
        assert_eq!(t4, GOLD_T4, "Tesla T4 fingerprint drifted: {t4:#018x}");
        assert_eq!(
            v100, GOLD_V100,
            "Tesla V100 fingerprint drifted: {v100:#018x}"
        );
        assert_eq!(a100, GOLD_A100, "A100 fingerprint drifted: {a100:#018x}");
    }

    const GOLD_T4: u64 = 0x7860_d9be_0f74_57ca;
    const GOLD_V100: u64 = 0x3470_eec3_d4d3_0cb1;
    const GOLD_A100: u64 = 0x3e04_fc37_8bea_5dee;

    #[test]
    fn fingerprint_covers_model_params() {
        let base = GpuArch::tesla_t4();
        let mut recalibrated = base.clone();
        recalibrated.params.overlap_leak += 0.01;
        assert_ne!(
            arch_fingerprint(&base),
            arch_fingerprint(&recalibrated),
            "re-calibrating the model must invalidate caches"
        );
    }

    fn shard_with(times: &[(usize, f64)], arch: &GpuArch) -> TuneShard {
        // Distinct keys via the GEMM m dimension; times as given.
        let ep = Epilogue::linear(DType::F16);
        let entries = times
            .iter()
            .map(|&(m, time_us)| {
                (
                    Key::Gemm(GemmProblem::fp16(m, 64, 64), (&ep).into()),
                    ProfiledKernel {
                        config: GemmConfig::turing_default(),
                        time_us,
                        candidates: 4,
                    },
                )
            })
            .collect();
        let mut shard = TuneShard {
            arch: arch_fingerprint(arch),
            name: arch.name.clone(),
            entries,
        };
        shard.sort();
        shard
    }

    #[test]
    fn shard_merge_keeps_the_faster_winner_per_key() {
        let t4 = GpuArch::tesla_t4();
        let mut a = shard_with(&[(64, 10.0), (128, 5.0)], &t4);
        let b = shard_with(&[(64, 7.0), (128, 9.0), (256, 3.0)], &t4);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        let time_of = |m: usize| {
            a.entries()
                .iter()
                .find_map(|(k, kernel)| match k {
                    Key::Gemm(p, _) if p.m == m => Some(kernel.time_us),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(time_of(64), 7.0, "other's faster winner replaces");
        assert_eq!(time_of(128), 5.0, "incumbent faster winner survives");
        assert_eq!(time_of(256), 3.0, "new keys are appended");
    }

    #[test]
    fn bundle_round_trips_bit_identically() {
        let dir = std::env::temp_dir().join("bolt_bundle_roundtrip_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("fleet.bundle");

        let mut bundle = TuneBundle::new();
        bundle.absorb(shard_with(&[(64, 10.5), (128, 3.25)], &GpuArch::tesla_t4()));
        bundle.absorb(shard_with(&[(64, 4.125)], &GpuArch::a100()));
        bundle.write(&path).unwrap();

        let shipped = std::fs::read_to_string(&path).unwrap();
        let reloaded = TuneBundle::read(&path).unwrap();
        assert_eq!(reloaded, bundle);
        assert_eq!(
            reloaded.to_string_canonical(),
            shipped,
            "pack -> ship -> load -> re-pack must be bit-identical"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bundle_detects_tampering_and_truncation() {
        let dir = std::env::temp_dir().join("bolt_bundle_tamper_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("fleet.bundle");
        let mut bundle = TuneBundle::new();
        bundle.absorb(shard_with(&[(64, 10.5)], &GpuArch::tesla_t4()));
        bundle.write(&path).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let truncated: String = text.lines().take(2).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, truncated).unwrap();
        let err = TuneBundle::read(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bundle_absorb_merges_same_arch_shards() {
        let t4 = GpuArch::tesla_t4();
        let mut bundle = TuneBundle::new();
        bundle.absorb(shard_with(&[(64, 10.0)], &t4));
        bundle.absorb(shard_with(&[(64, 6.0), (128, 2.0)], &t4));
        bundle.absorb(shard_with(&[(64, 1.0)], &GpuArch::a100()));
        assert_eq!(bundle.shards().len(), 2, "same-arch shards merge");
        let t4_shard = bundle.shard_for(arch_fingerprint(&t4)).unwrap();
        assert_eq!(t4_shard.len(), 2);
    }
}
