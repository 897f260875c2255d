//! File-backed segment store: the durability layer under the streaming
//! checkpoint loop.
//!
//! A [`SegmentStore`] owns one directory and keeps two kinds of
//! payload-agnostic artefacts in it (the *contents* are opaque byte
//! payloads — `apg-core` feeds it framed checkpoints and encoded update
//! batches, but this layer never decodes them):
//!
//! * **snapshot files** (`snap-<seq>.bin`) — one frame holding the full
//!   durable state at a boundary, written by
//!   [`SegmentStore::install_snapshot`];
//! * **delta snapshots** (`dsnap-<seq>.bin`) — one frame holding an
//!   incremental encoding against a base root, written by
//!   [`SegmentStore::install_delta`]: the frame payload starts with a
//!   16-byte back-link (`base seq: u64 LE ++ base digest: u64 LE`,
//!   FNV-1a over the base's frame payload) followed by the caller's
//!   bytes, so recovery can walk — and digest-validate — the chain down
//!   to its full snapshot;
//! * **log segments** (`seg-<seq>.bin`) — append-only frame sequences,
//!   one frame per [`SegmentStore::append`], rotated to a fresh file once
//!   [`StoreConfig::segment_rotate_bytes`] is exceeded.
//!
//! All share one monotonically increasing sequence counter, so "the log
//! tail after root `S`" is simply *every segment with `seq > S`*, in
//! sequence order. A `MANIFEST` file names the durable recovery root
//! (full or delta snapshot). Chains are bounded by
//! [`StoreConfig::max_chain_len`]: once [`SegmentStore::needs_rebase`]
//! turns true the caller folds the chain into a fresh full snapshot,
//! whose install garbage-collects the stale links.
//!
//! # On-disk framing
//!
//! Every file starts with a 6-byte header (4-byte ASCII magic + `u16` LE
//! [`format::VERSION`]). After the header come frames:
//!
//! ```text
//! [len: u32 LE][crc32(seq ++ payload): u32 LE][seq: u64 LE][payload: len bytes]
//! ```
//!
//! The CRC is the IEEE/zlib CRC-32 over the sequence number and payload
//! together. `seq` is the frame's position in the write-ahead tail since
//! the last snapshot (0-based, reset by every
//! [`SegmentStore::install_snapshot`]); recovery requires the tail's
//! sequence numbers to be contiguous across segment boundaries, so a
//! sealed segment that lost whole frames to a *clean-looking* truncation
//! (cut exactly at a frame boundary — undetectable from that file alone)
//! is still caught instead of silently replaying history with a hole.
//! Snapshot files and the manifest hold exactly one frame (seq 0);
//! segments hold zero or more.
//!
//! # Fsync ordering (the write path's crash contract)
//!
//! [`SegmentStore::install_snapshot`] and [`SegmentStore::install_delta`]
//! share one install routine, which performs, in order:
//!
//! 1. write the root file (`snap-<S>.bin` or `dsnap-<S>.bin`), `fsync` it;
//! 2. create the fresh active segment `seg-<S+1>.bin`, `fsync` it;
//! 3. `fsync` the directory (both names are durable);
//! 4. write `MANIFEST.tmp` (pointing at `S`), `fsync`, atomically
//!    `rename` onto `MANIFEST`, `fsync` the directory — the *pointer
//!    flip*: only now is the new file the recovery root;
//! 5. best-effort delete of everything the new root no longer reaches —
//!    all files with `seq < S` after a full snapshot; after a delta, the
//!    segments below `S` but not the chain it links down (stale files are
//!    garbage, never a correctness hazard).
//!
//! Because the flip happens last, a crash anywhere in 1–3 leaves the old
//! manifest pointing at the old, fully-fsynced root + segments. (With
//! [`StoreConfig::fsync`] off the same writes happen in the same order
//! and none of the syncs do.)
//! [`SegmentStore::append`] writes one frame and (with
//! [`StoreConfig::fsync`] on) syncs the segment before returning, so an
//! acknowledged append is durable.
//!
//! # Recovery
//!
//! [`SegmentStore::open`] on an existing directory reads `MANIFEST`,
//! loads the snapshot it names, then replays every higher-sequence
//! segment in order. Corruption handling is position-dependent, WAL
//! style:
//!
//! * a short/torn/checksum-failing frame in the **last** segment is the
//!   expected signature of a mid-write crash: the segment is truncated
//!   back to its last good frame (counted in
//!   [`Recovery::torn_frames_dropped`]) and recovery succeeds;
//! * the same damage in a **sealed** (non-last) segment, the snapshot, or
//!   the manifest means acknowledged data was lost — recovery fails with
//!   a typed [`StoreError`], never a panic and never a silently partial
//!   state;
//! * a frame-sequence gap anywhere in the tail (acknowledged frames
//!   missing without visible damage) is equally fatal and typed.
//!
//! A directory with no `MANIFEST` is a fresh store (an interrupted
//! first-ever `install_snapshot` leaves no manifest, so its debris is
//! ignored and overwritten).

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::{format, DecodeError};

/// CRC-32 (IEEE 802.3, the zlib polynomial) tables for slicing-by-8.
/// `CRC32_TABLES[0]` is the classic bytewise table; `CRC32_TABLES[j][i]`
/// is the CRC of byte `i` followed by `j` zero bytes, so eight lookups
/// fold eight input bytes at once instead of eight dependent steps.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes` (the checksum every frame carries): eight bytes
/// per step through the slicing-by-8 tables, the tail bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let byte = |word: u32, shift: u32| ((word >> shift) & 0xff) as usize;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let (lo, hi) = word.split_at(4);
        let lo = crc ^ u32::from_le_bytes(lo.try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(hi.try_into().expect("4 bytes"));
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

/// FNV-1a 64-bit hash — the content digest each delta-snapshot link
/// records for its base, validated link by link during recovery. Cheap
/// enough to compute inline on the write path (one pass over the payload
/// being written anyway) and independent of the per-frame CRC, so a chain
/// link catches a *wrong file* (e.g. a stale same-sequence artefact) even
/// when that file is internally self-consistent.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Magic for a store snapshot file (`snap-<seq>.bin`).
pub const MAGIC_STORE_SNAPSHOT: [u8; 4] = *b"APGN";
/// Magic for a store delta-snapshot file (`dsnap-<seq>.bin`), chained to a
/// base snapshot by `(seq, digest)`.
pub const MAGIC_STORE_DELTA: [u8; 4] = *b"APGI";
/// Magic for a store log segment (`seg-<seq>.bin`).
pub const MAGIC_STORE_SEGMENT: [u8; 4] = *b"APGT";
/// Magic for the store manifest.
pub const MAGIC_STORE_MANIFEST: [u8; 4] = *b"APGM";

/// Frames larger than this are rejected as corrupt before allocation: no
/// real payload (a checkpoint of a graph that fits in memory) approaches
/// it, but a flipped length byte can claim anything. The write path holds
/// itself to the same limit ([`check_frame_len`]), so the store never
/// writes a frame it would refuse to read back.
const MAX_FRAME_BYTES: usize = 1 << 30;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing (`"create segment"`, `"fsync dir"`, …).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A payload handed back to the caller failed to decode (wrapped so
    /// callers can surface one error type for the whole recovery path).
    Decode(DecodeError),
    /// Acknowledged-durable data is damaged: a sealed segment, snapshot or
    /// manifest fails its header or checksum checks.
    Corrupt(&'static str),
    /// A payload handed to [`SegmentStore::append`] or an install exceeds
    /// the frame limit recovery enforces. Nothing was written: the
    /// previous root, its chain and the tail are untouched.
    FrameTooLarge {
        /// The frame payload's length in bytes.
        len: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "store I/O failure: {op} on {}: {source}", path.display())
            }
            StoreError::Decode(e) => write!(f, "store payload failed to decode: {e}"),
            StoreError::Corrupt(what) => write!(f, "store corrupt: {what}"),
            StoreError::FrameTooLarge { len } => write!(
                f,
                "store frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Decode(e) => Some(e),
            StoreError::Corrupt(_) | StoreError::FrameTooLarge { .. } => None,
        }
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

/// Write-path tuning for a [`SegmentStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Rotate the active segment to a fresh file once it holds at least
    /// this many payload bytes (checked *before* each append).
    pub segment_rotate_bytes: u64,
    /// Whether to `fsync` after every append and snapshot write — every
    /// sync of the install protocol, files and directory alike. Turning
    /// this off surrenders the durability guarantee (a crash may lose
    /// acknowledged appends and installs) in exchange for write speed —
    /// the persist bench prices exactly this knob.
    pub fsync: bool,
    /// Rebase policy for delta-snapshot chains: once
    /// [`SegmentStore::chain_len`] reaches this many links,
    /// [`SegmentStore::needs_rebase`] turns true and the caller is expected
    /// to fold the chain into a fresh full [`SegmentStore::install_snapshot`]
    /// (which garbage-collects the chain). Bounds both recovery replay work
    /// and the disk the chain pins.
    pub max_chain_len: usize,
}

/// How much of a file one sync must make durable.
enum SyncScope {
    /// Contents and metadata: whole files, and directories.
    All,
    /// Contents only: a frame appended to a segment whose creation an
    /// earlier [`SyncScope::All`] already covered.
    Data,
}

impl StoreConfig {
    /// Syncs `file` — unless [`StoreConfig::fsync`] is off, in which case
    /// the store never syncs anything. Every sync the store issues, of a
    /// file's data, a whole file or a directory, goes through here.
    fn sync(
        &self,
        file: &File,
        scope: SyncScope,
        op: &'static str,
        path: &Path,
    ) -> Result<(), StoreError> {
        if self.fsync {
            match scope {
                SyncScope::All => file.sync_all(),
                SyncScope::Data => file.sync_data(),
            }
            .map_err(io_err(op, path))?;
        }
        Ok(())
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_rotate_bytes: 1 << 20,
            fsync: true,
            max_chain_len: 8,
        }
    }
}

/// What [`SegmentStore::open`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The durable base snapshot payload the recovery root chains down to
    /// (`None` for a fresh store).
    pub snapshot: Option<Vec<u8>>,
    /// Delta-snapshot payloads chained above the base, oldest first: the
    /// recovery root is `snapshot` with each delta applied in order.
    pub deltas: Vec<Vec<u8>>,
    /// Every frame appended after the recovery root, in append order.
    pub tail: Vec<Vec<u8>>,
    /// Frames dropped from the *last* segment because a crash tore them
    /// (truncation repair). Always 0 on a clean shutdown.
    pub torn_frames_dropped: usize,
}

/// An open store: the writer half of the durability layer. See the
/// [module docs](self) for layout, fsync ordering and recovery semantics.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    config: StoreConfig,
    /// Next unused sequence number (snapshots, delta snapshots and
    /// segments share it).
    next_seq: u64,
    /// Sequence of the durable (manifest-named) recovery root — a full
    /// snapshot, or the newest delta snapshot in the chain.
    snapshot_seq: Option<u64>,
    /// Sequence of the full snapshot anchoring the delta chain (equals
    /// `snapshot_seq` when the root is a full snapshot).
    chain_base_seq: Option<u64>,
    /// Delta-snapshot sequences above the base, oldest first.
    chain: Vec<u64>,
    /// FNV-1a digest of the recovery root's frame payload — what the next
    /// delta install records as its back-link.
    root_digest: Option<u64>,
    /// The active segment: `(seq, handle, payload bytes appended)`.
    active: Option<(u64, File, u64)>,
    /// Frames appended to the tail since the last snapshot — the next
    /// frame's sequence number (reset by every install, rebuilt by
    /// recovery).
    next_frame_seq: u64,
}

fn io_err<'a>(op: &'static str, path: &'a Path) -> impl FnOnce(std::io::Error) -> StoreError + 'a {
    move |source| StoreError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// Parses `prefix-<seq>.bin` names; returns the sequence number.
fn parse_seq(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

fn write_header(buf: &mut Vec<u8>, magic: [u8; 4]) {
    buf.extend_from_slice(&magic);
    buf.extend_from_slice(&format::VERSION.to_le_bytes());
}

/// The write-side twin of [`next_frame`]'s length check, run before a
/// byte of the frame is written.
fn check_frame_len(len: usize) -> Result<(), StoreError> {
    if len > MAX_FRAME_BYTES {
        return Err(StoreError::FrameTooLarge { len });
    }
    Ok(())
}

/// Frames `payload`, whose length [`check_frame_len`] has admitted (so it
/// fits the `u32` length field).
fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // CRC, patched once seq+payload are in place
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[8..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Checks a file's 6-byte header. Returns the remaining bytes.
fn check_header(bytes: &[u8], magic: [u8; 4]) -> Result<&[u8], StoreError> {
    if bytes.len() < 6 {
        return Err(StoreError::Corrupt("store file shorter than its header"));
    }
    if bytes[..4] != magic {
        return Err(StoreError::Corrupt("store file has the wrong magic"));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != format::VERSION {
        return Err(StoreError::Corrupt(
            "store file written by an unsupported format version",
        ));
    }
    Ok(&bytes[6..])
}

/// One parse step over a frame sequence.
enum FrameStep<'a> {
    /// A complete, checksum-verified frame: its sequence number, payload,
    /// and the bytes after it.
    Ok(u64, &'a [u8], &'a [u8]),
    /// The bytes end cleanly at a frame boundary.
    End,
    /// The remaining bytes are not a whole valid frame (torn write,
    /// flipped bit, or a length that cannot fit).
    Torn,
}

fn next_frame(bytes: &[u8]) -> FrameStep<'_> {
    if bytes.is_empty() {
        return FrameStep::End;
    }
    if bytes.len() < 16 {
        return FrameStep::Torn;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    let want = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES || bytes.len() - 16 < len {
        return FrameStep::Torn;
    }
    if crc32(&bytes[8..16 + len]) != want {
        return FrameStep::Torn;
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    FrameStep::Ok(seq, &bytes[16..16 + len], &bytes[16 + len..])
}

/// Parses every frame in `bytes` (a file body with the header already
/// stripped) into `(seq, payload)` pairs. On damage: the byte offset
/// (relative to `bytes`) of the first bad frame, plus the frames before
/// it.
fn parse_frames(bytes: &[u8]) -> (Vec<(u64, Vec<u8>)>, Option<usize>) {
    let mut frames = Vec::new();
    let mut rest = bytes;
    loop {
        match next_frame(rest) {
            FrameStep::Ok(seq, payload, tail) => {
                frames.push((seq, payload.to_vec()));
                rest = tail;
            }
            FrameStep::End => return (frames, None),
            FrameStep::Torn => {
                let offset = bytes.len() - rest.len();
                return (frames, Some(offset));
            }
        }
    }
}

/// One of the two kinds of recovery-root file. They share the install
/// protocol and the single-frame layout; this is everything that differs.
#[derive(Clone, Copy)]
struct RootKind {
    /// File-name prefix: `<prefix><seq>.bin`.
    prefix: &'static str,
    magic: [u8; 4],
    /// Whether the frame payload starts with a back-link to a base root
    /// (and the install therefore extends the chain instead of folding it).
    chained: bool,
    /// What recovery reports when the file is not one intact frame.
    damaged: &'static str,
}

/// `snap-<seq>.bin`: a full snapshot, the base of a chain.
const FULL: RootKind = RootKind {
    prefix: "snap-",
    magic: MAGIC_STORE_SNAPSHOT,
    chained: false,
    damaged: "snapshot frame is damaged",
};
/// `dsnap-<seq>.bin`: a delta snapshot linked to the root below it.
const DELTA: RootKind = RootKind {
    prefix: "dsnap-",
    magic: MAGIC_STORE_DELTA,
    chained: true,
    damaged: "delta snapshot frame is damaged",
};

impl RootKind {
    fn path(&self, dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("{}{seq}.bin", self.prefix))
    }
}

/// Reads a file that must hold exactly one frame (sequence 0) after its
/// header — a root file or the manifest — and returns the frame payload.
fn read_single_frame(
    path: &Path,
    magic: [u8; 4],
    damaged: &'static str,
) -> Result<Vec<u8>, StoreError> {
    let bytes = fs::read(path).map_err(io_err("read single-frame file", path))?;
    match next_frame(check_header(&bytes, magic)?) {
        FrameStep::Ok(0, payload, []) => Ok(payload.to_vec()),
        _ => Err(StoreError::Corrupt(damaged)),
    }
}

impl SegmentStore {
    /// Opens (or creates) a store in `dir`, recovering whatever the last
    /// writer made durable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures; [`StoreError::Corrupt`]
    /// when acknowledged-durable data (manifest, snapshot, sealed
    /// segments) is damaged. Torn tails on the last segment are *not*
    /// errors — they are repaired and reported via
    /// [`Recovery::torn_frames_dropped`].
    pub fn open(dir: &Path, config: StoreConfig) -> Result<(SegmentStore, Recovery), StoreError> {
        fs::create_dir_all(dir).map_err(io_err("create dir", dir))?;

        // Inventory the directory.
        let mut seg_seqs = Vec::new();
        let mut max_seq = 0u64;
        for entry in fs::read_dir(dir).map_err(io_err("read dir", dir))? {
            let entry = entry.map_err(io_err("read dir entry", dir))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) =
                parse_seq(name, FULL.prefix).or_else(|| parse_seq(name, DELTA.prefix))
            {
                max_seq = max_seq.max(seq);
            } else if let Some(seq) = parse_seq(name, "seg-") {
                seg_seqs.push(seq);
                max_seq = max_seq.max(seq);
            }
        }
        seg_seqs.sort_unstable();

        // The store as a fresh directory would have it; recovery below
        // fills in whatever the manifest makes durable. The sequence starts
        // above anything lying around so stale names are never re-written.
        let mut store = SegmentStore {
            dir: dir.to_path_buf(),
            config,
            next_seq: max_seq + 1,
            snapshot_seq: None,
            chain_base_seq: None,
            chain: Vec::new(),
            root_digest: None,
            active: None,
            next_frame_seq: 0,
        };
        let manifest_path = dir.join("MANIFEST");
        if !manifest_path.exists() {
            // Fresh store (or a crash before the first pointer flip, whose
            // debris is overwritten — it was never durable).
            store.open_fresh_segment()?;
            return Ok((store, Recovery::default()));
        }

        // Manifest → durable recovery-root seq (a full snapshot or the
        // newest link of a delta chain).
        const MANIFEST_DAMAGED: &str = "manifest frame is damaged";
        let manifest = read_single_frame(&manifest_path, MAGIC_STORE_MANIFEST, MANIFEST_DAMAGED)?;
        let snapshot_seq = u64::from_le_bytes(
            manifest
                .try_into()
                .map_err(|_| StoreError::Corrupt(MANIFEST_DAMAGED))?,
        );

        // Walk the chain from the root down to its full-snapshot base,
        // validating every link: each delta snapshot records the `(seq,
        // digest)` of its base, and the digest must match what is actually
        // on disk — a broken or missing link is acknowledged-durable data
        // gone, hence fatal and typed.
        let mut deltas: Vec<Vec<u8>> = Vec::new();
        let mut cursor = snapshot_seq;
        let mut expected_digest: Option<u64> = None;
        let (snapshot, chain_base_seq) = loop {
            let (kind, path) = [FULL, DELTA]
                .into_iter()
                .map(|kind| (kind, kind.path(dir, cursor)))
                .find(|(_, path)| path.exists())
                .ok_or(StoreError::Corrupt(
                    "delta chain link is missing from the store directory",
                ))?;
            let frame_payload = read_single_frame(&path, kind.magic, kind.damaged)?;
            let digest = fnv1a64(&frame_payload);
            match expected_digest {
                Some(want) if want != digest => {
                    return Err(StoreError::Corrupt(
                        "delta chain link digest does not match the file on disk",
                    ));
                }
                Some(_) => {}
                None => store.root_digest = Some(digest),
            }
            if !kind.chained {
                break (frame_payload, cursor);
            }
            if frame_payload.len() < 16 {
                return Err(StoreError::Corrupt(
                    "delta snapshot is too short to hold its base link",
                ));
            }
            let base_seq = u64::from_le_bytes(frame_payload[..8].try_into().expect("8 bytes"));
            let base_digest = u64::from_le_bytes(frame_payload[8..16].try_into().expect("8 bytes"));
            if base_seq >= cursor {
                return Err(StoreError::Corrupt("delta chain does not descend"));
            }
            deltas.push(frame_payload[16..].to_vec());
            store.chain.push(cursor);
            expected_digest = Some(base_digest);
            cursor = base_seq;
        };
        // Both were collected root-first; recovery and the store want them
        // oldest-first.
        deltas.reverse();
        store.chain.reverse();

        // Live segments: everything after the snapshot, in order. Torn
        // frames are only legal at the very tail of the very last one.
        let live: Vec<u64> = seg_seqs.into_iter().filter(|&s| s > snapshot_seq).collect();
        let mut tail = Vec::new();
        let mut torn_frames_dropped = 0usize;
        let mut expected_frame_seq = 0u64;
        let mut last_segment: Option<(u64, u64)> = None; // (seq, good body bytes)
        for (i, &seq) in live.iter().enumerate() {
            let path = dir.join(format!("seg-{seq}.bin"));
            let bytes = fs::read(&path).map_err(io_err("read segment", &path))?;
            let is_last = i + 1 == live.len();
            let header_checked = check_header(&bytes, MAGIC_STORE_SEGMENT);
            let body = match header_checked {
                Ok(body) => body,
                Err(e) => {
                    if is_last {
                        // Even the header is torn (a crash during segment
                        // creation): nothing in this segment was ever
                        // readable, so drop it whole and treat the tail as
                        // ending at the previous segment.
                        torn_frames_dropped += 1;
                        fs::remove_file(&path).map_err(io_err("remove torn segment", &path))?;
                        last_segment = None;
                        continue;
                    }
                    return Err(e);
                }
            };
            let (frames, damage) = parse_frames(body);
            // Frame sequence numbers must run contiguously across the whole
            // tail: a gap means acknowledged frames vanished without
            // visible damage (e.g. a sealed segment truncated exactly at a
            // frame boundary) — replaying past it would reorder history.
            for (frame_seq, _) in &frames {
                if *frame_seq != expected_frame_seq {
                    return Err(StoreError::Corrupt(
                        "write-ahead frame sequence is not contiguous",
                    ));
                }
                expected_frame_seq += 1;
            }
            match damage {
                None => {
                    last_segment = Some((seq, body.len() as u64));
                    tail.extend(frames.into_iter().map(|(_, payload)| payload));
                }
                Some(offset) if is_last => {
                    // Torn tail: truncate back to the last good frame and
                    // count what a future reader will no longer see. The
                    // remainder past the first damage is unaccounted — it
                    // may hold later intact frames, but replaying past a
                    // hole would reorder history, so everything after the
                    // tear is dropped with it.
                    let keep = 6 + offset as u64;
                    let file = OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(io_err("open segment for repair", &path))?;
                    file.set_len(keep)
                        .map_err(io_err("truncate torn tail", &path))?;
                    store
                        .config
                        .sync(&file, SyncScope::All, "fsync repaired segment", &path)?;
                    // Count whole torn frames conservatively: at least one
                    // (the torn frame itself).
                    torn_frames_dropped += 1;
                    last_segment = Some((seq, offset as u64));
                    tail.extend(frames.into_iter().map(|(_, payload)| payload));
                }
                Some(_) => {
                    return Err(StoreError::Corrupt("sealed segment holds a damaged frame"));
                }
            }
        }

        store.next_seq = max_seq.max(snapshot_seq) + 1;
        store.snapshot_seq = Some(snapshot_seq);
        store.chain_base_seq = Some(chain_base_seq);
        store.next_frame_seq = expected_frame_seq;
        // Continue appending to the last live segment; create one if the
        // tail is empty (e.g. the post-snapshot segment was torn away).
        match last_segment {
            Some((seq, body_bytes)) => {
                let path = store.segment_path(seq);
                let file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(io_err("reopen active segment", &path))?;
                store.active = Some((seq, file, body_bytes));
            }
            None => store.open_fresh_segment()?,
        }
        let recovery = Recovery {
            snapshot: Some(snapshot),
            deltas,
            tail,
            torn_frames_dropped,
        };
        Ok((store, recovery))
    }

    fn segment_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("seg-{seq}.bin"))
    }

    /// Creates (and syncs) a fresh empty segment, making it active.
    fn open_fresh_segment(&mut self) -> Result<(), StoreError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = self.segment_path(seq);
        let mut header = Vec::with_capacity(6);
        write_header(&mut header, MAGIC_STORE_SEGMENT);
        let mut file = File::create(&path).map_err(io_err("create segment", &path))?;
        file.write_all(&header)
            .map_err(io_err("write segment header", &path))?;
        self.config
            .sync(&file, SyncScope::All, "fsync new segment", &path)?;
        self.sync_dir()?;
        self.active = Some((seq, file, 0));
        Ok(())
    }

    /// Makes the directory's current names durable (subject to
    /// [`StoreConfig::fsync`], like every sync).
    fn sync_dir(&self) -> Result<(), StoreError> {
        if !self.config.fsync {
            return Ok(());
        }
        let dir = File::open(&self.dir).map_err(io_err("open dir", &self.dir))?;
        self.config
            .sync(&dir, SyncScope::All, "fsync dir", &self.dir)
    }

    /// Appends one payload frame to the active segment, rotating first if
    /// the segment is over [`StoreConfig::segment_rotate_bytes`]. With
    /// [`StoreConfig::fsync`] on, the frame is durable when this returns.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only — appends never read.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        check_frame_len(payload.len())?;
        let rotate = match &self.active {
            Some((_, _, written)) => *written >= self.config.segment_rotate_bytes,
            None => true,
        };
        if rotate {
            // Seal the old segment with a final sync so rotation never
            // weakens durability ordering.
            if let Some((seq, file, _)) = self.active.take() {
                self.config.sync(
                    &file,
                    SyncScope::All,
                    "fsync sealed segment",
                    &self.segment_path(seq),
                )?;
            }
            self.open_fresh_segment()?;
        }
        let seq = self.active.as_ref().expect("rotation ensured a segment").0;
        let path = self.segment_path(seq);
        let bytes = frame(self.next_frame_seq, payload);
        let (_, file, written) = self.active.as_mut().expect("rotation ensured a segment");
        file.write_all(&bytes)
            .map_err(io_err("append frame", &path))?;
        self.config
            .sync(file, SyncScope::Data, "fsync append", &path)?;
        // Only an acknowledged frame consumes its sequence number: a failed
        // write must not leave a gap that makes the next `open` reject the
        // intact frames around it.
        *written += bytes.len() as u64;
        self.next_frame_seq += 1;
        Ok(())
    }

    /// Makes `payload` the durable recovery root as a full snapshot: writes
    /// `snap-<seq>.bin`, starts a fresh log segment, flips the manifest
    /// pointer atomically, then deletes everything older — including any
    /// delta chain, which this install folds (best-effort). See the
    /// [module docs](self) for the exact fsync ordering.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]. On error the manifest still names the previous
    /// root — a failed install never destroys the old recovery root.
    pub fn install_snapshot(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        self.install_root(FULL, payload)
    }

    /// Makes `payload` the durable recovery root as a *delta snapshot*
    /// chained onto the current root: writes `dsnap-<seq>.bin` carrying
    /// the `(seq, digest)` back-link, then follows the same protocol as
    /// [`SegmentStore::install_snapshot`], except that the chain's files
    /// survive the garbage collection. Recovery replays the base snapshot
    /// plus every chained delta in order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if no recovery root exists yet (the first
    /// install must be a full snapshot); [`StoreError::Io`] on filesystem
    /// failures. On error the manifest still names the previous root.
    pub fn install_delta(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let (Some(base_seq), Some(base_digest)) = (self.snapshot_seq, self.root_digest) else {
            return Err(StoreError::Corrupt(
                "delta install requires an existing snapshot root",
            ));
        };
        let mut frame_payload = Vec::with_capacity(16 + payload.len());
        frame_payload.extend_from_slice(&base_seq.to_le_bytes());
        frame_payload.extend_from_slice(&base_digest.to_le_bytes());
        frame_payload.extend_from_slice(payload);
        self.install_root(DELTA, &frame_payload)
    }

    /// The one root-install protocol, steps numbered as in the
    /// [module docs](self). `frame_payload` is the root file's single
    /// frame verbatim (for a delta, back-link included).
    fn install_root(&mut self, kind: RootKind, frame_payload: &[u8]) -> Result<(), StoreError> {
        check_frame_len(frame_payload.len())?;
        let seq = self.next_seq;
        self.next_seq += 1;

        // 1. Root file, fsynced before anything points at it.
        let root_path = kind.path(&self.dir, seq);
        let mut bytes = Vec::with_capacity(6 + 16 + frame_payload.len());
        write_header(&mut bytes, kind.magic);
        bytes.extend_from_slice(&frame(0, frame_payload));
        let mut file = File::create(&root_path).map_err(io_err("create root file", &root_path))?;
        file.write_all(&bytes)
            .map_err(io_err("write root file", &root_path))?;
        self.config
            .sync(&file, SyncScope::All, "fsync root file", &root_path)?;

        // 2+3. Fresh tail segment for appends after this root; creating it
        // ends with the directory sync that makes both names durable. The
        // segment it seals gets its final sync too.
        let old_active = self.active.take();
        self.open_fresh_segment()?;
        if let Some((old_seq, old_file, _)) = old_active {
            self.config.sync(
                &old_file,
                SyncScope::All,
                "fsync sealed segment",
                &self.segment_path(old_seq),
            )?;
        }

        // 4. The pointer flip: tmp + fsync + atomic rename + dir fsync.
        let manifest = self.dir.join("MANIFEST");
        let tmp = self.dir.join("MANIFEST.tmp");
        let mut bytes = Vec::with_capacity(6 + 16 + 8);
        write_header(&mut bytes, MAGIC_STORE_MANIFEST);
        bytes.extend_from_slice(&frame(0, &seq.to_le_bytes()));
        let mut file = File::create(&tmp).map_err(io_err("create manifest tmp", &tmp))?;
        file.write_all(&bytes)
            .map_err(io_err("write manifest tmp", &tmp))?;
        self.config
            .sync(&file, SyncScope::All, "fsync manifest tmp", &tmp)?;
        drop(file);
        fs::rename(&tmp, &manifest).map_err(io_err("rename manifest", &manifest))?;
        self.sync_dir()?;
        self.snapshot_seq = Some(seq);
        self.root_digest = Some(fnv1a64(frame_payload));
        if kind.chained {
            self.chain.push(seq);
        } else {
            // A full snapshot folds (rebases) any delta chain: it is now
            // the whole recovery root.
            self.chain_base_seq = Some(seq);
            self.chain.clear();
        }
        // The tail restarts at this root: frame numbering resets only now
        // — a *failed* install keeps the old root, whose tail (which the
        // already-created fresh segment is part of) must keep counting.
        self.next_frame_seq = 0;

        // 5. Garbage: segments below the new root are folded into it;
        // root files survive from the chain's base up, which after a full
        // snapshot is this very file — the superseded chain goes too.
        // Deletion failures are ignored — stale files are filtered by
        // sequence on recovery anyway.
        self.collect_garbage(self.chain_base_seq.unwrap_or(seq), seq);
        Ok(())
    }

    /// Best-effort deletion of artefacts unreachable from the manifest:
    /// snapshots and delta snapshots below `snap_floor`, segments below
    /// `seg_floor`. Orphaned delta snapshots *between* the floors (from
    /// interrupted installs) are harmless — recovery only follows explicit
    /// chain links — and are swept by the next full-snapshot install.
    fn collect_garbage(&self, snap_floor: u64, seg_floor: u64) {
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let stale = parse_seq(name, FULL.prefix).is_some_and(|s| s < snap_floor)
                    || parse_seq(name, DELTA.prefix).is_some_and(|s| {
                        s < snap_floor || (s < seg_floor && !self.chain.contains(&s))
                    })
                    || parse_seq(name, "seg-").is_some_and(|s| s < seg_floor);
                if stale {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }

    /// Sequence of the durable (manifest-named) recovery root, if one
    /// exists — a full snapshot, or the newest link of a delta chain.
    pub fn snapshot_seq(&self) -> Option<u64> {
        self.snapshot_seq
    }

    /// Sequence of the full snapshot anchoring the current delta chain
    /// (equals [`SegmentStore::snapshot_seq`] when the chain is empty).
    pub fn chain_base_seq(&self) -> Option<u64> {
        self.chain_base_seq
    }

    /// Number of delta snapshots chained above the base full snapshot.
    pub fn chain_len(&self) -> usize {
        self.chain.len()
    }

    /// Whether the delta chain has reached [`StoreConfig::max_chain_len`]
    /// — the caller should fold it with a full
    /// [`SegmentStore::install_snapshot`] instead of chaining further.
    pub fn needs_rebase(&self) -> bool {
        self.chain.len() >= self.config.max_chain_len
    }

    /// FNV-1a digest of the current recovery root's frame payload — the
    /// back-link the next [`SegmentStore::install_delta`] will record.
    pub fn root_digest(&self) -> Option<u64> {
        self.root_digest
    }

    /// Sequence of the segment currently receiving appends.
    pub fn active_segment_seq(&self) -> Option<u64> {
        self.active.as_ref().map(|(seq, _, _)| *seq)
    }

    /// Total bytes currently on disk for the live artefacts (base
    /// snapshot, delta chain, and segments above the recovery root) —
    /// what a follower would have to copy to bootstrap.
    pub fn live_bytes(&self) -> u64 {
        let mut total = 0;
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        let snap_floor = self.chain_base_seq.unwrap_or(0);
        let seg_floor = self.snapshot_seq.unwrap_or(0);
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let live = name == "MANIFEST"
                || parse_seq(name, FULL.prefix).is_some_and(|s| s >= snap_floor)
                || parse_seq(name, DELTA.prefix).is_some_and(|s| s >= snap_floor)
                || parse_seq(name, "seg-").is_some_and(|s| s >= seg_floor);
            if live {
                if let Ok(meta) = entry.metadata() {
                    total += meta.len();
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory under the system temp dir, removed on drop
    /// (hand-rolled: no tempfile crate in the offline container).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let pid = std::process::id();
            let dir = std::env::temp_dir().join(format!("apg-store-{tag}-{pid}"));
            let _ = fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn no_sync() -> StoreConfig {
        StoreConfig {
            fsync: false,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-table, one-byte-per-step CRC the sliced loop must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    /// `n` bytes from a fixed xorshift stream.
    fn noise(n: usize) -> Vec<u8> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        let bytes = noise(1 << 20);
        assert_eq!(crc32_bytewise(b"123456789"), 0xcbf4_3926);
        for len in 0..=64 {
            for start in [0, 1, 3, 7] {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "length {len} at {start}"
                );
            }
        }
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        assert_eq!(crc32(&[0xff; 64]), crc32_bytewise(&[0xff; 64]));
    }

    #[test]
    fn snapshot_and_tail_round_trip() {
        let scratch = Scratch::new("round-trip");
        {
            let (mut store, rec) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
            assert!(rec.snapshot.is_none());
            store.install_snapshot(b"snapshot-one").unwrap();
            store.append(b"batch-a").unwrap();
            store.append(b"batch-b").unwrap();
        }
        let (store, rec) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"snapshot-one"[..]));
        assert_eq!(rec.tail, vec![b"batch-a".to_vec(), b"batch-b".to_vec()]);
        assert_eq!(rec.torn_frames_dropped, 0);
        assert!(store.snapshot_seq().is_some());
    }

    #[test]
    fn new_snapshot_resets_the_tail_and_collects_garbage() {
        let scratch = Scratch::new("gc");
        let (mut store, _) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        store.install_snapshot(b"one").unwrap();
        store.append(b"a").unwrap();
        store.install_snapshot(b"two").unwrap();
        store.append(b"b").unwrap();
        let snap_seq = store.snapshot_seq().unwrap();
        drop(store);

        let (_, rec) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"two"[..]));
        assert_eq!(rec.tail, vec![b"b".to_vec()]);
        // Stale artefacts are gone.
        for entry in fs::read_dir(&scratch.0).unwrap().flatten() {
            let name = entry.file_name().to_str().unwrap().to_string();
            if let Some(seq) = parse_seq(&name, "snap-").or_else(|| parse_seq(&name, "seg-")) {
                assert!(seq >= snap_seq, "stale file {name} survived");
            }
        }
    }

    #[test]
    fn rotation_splits_the_tail_across_segments() {
        let scratch = Scratch::new("rotate");
        let config = StoreConfig {
            segment_rotate_bytes: 32,
            fsync: false,
            ..StoreConfig::default()
        };
        let (mut store, _) = SegmentStore::open(&scratch.0, config.clone()).unwrap();
        store.install_snapshot(b"s").unwrap();
        let first_seg = store.active_segment_seq().unwrap();
        for i in 0..8u8 {
            store.append(&[i; 16]).unwrap();
        }
        assert!(
            store.active_segment_seq().unwrap() > first_seg,
            "32-byte rotation threshold never rotated across 8x24-byte frames"
        );
        drop(store);
        let (_, rec) = SegmentStore::open(&scratch.0, config).unwrap();
        assert_eq!(rec.tail.len(), 8);
        for (i, payload) in rec.tail.iter().enumerate() {
            assert_eq!(payload, &[i as u8; 16]);
        }
    }

    #[test]
    fn torn_tail_is_repaired_sealed_damage_is_fatal() {
        let scratch = Scratch::new("torn");
        let (mut store, _) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        store.install_snapshot(b"s").unwrap();
        store.append(b"good-frame").unwrap();
        store.append(b"doomed-frame").unwrap();
        let seg = store.segment_path(store.active_segment_seq().unwrap());
        drop(store);

        // Tear the last frame: chop 3 bytes off the end.
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let (_, rec) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        assert_eq!(rec.tail, vec![b"good-frame".to_vec()]);
        assert_eq!(rec.torn_frames_dropped, 1);
        // The repair truncated the file: reopening is now clean.
        let (_, rec) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        assert_eq!(rec.torn_frames_dropped, 0);

        // Same damage on a *sealed* segment is unrecoverable: append past
        // the rotation threshold so the damaged segment is not last.
        let scratch = Scratch::new("sealed");
        let config = StoreConfig {
            segment_rotate_bytes: 8,
            fsync: false,
            ..StoreConfig::default()
        };
        let (mut store, _) = SegmentStore::open(&scratch.0, config.clone()).unwrap();
        store.install_snapshot(b"s").unwrap();
        let sealed = store.segment_path(store.active_segment_seq().unwrap());
        store.append(b"frame-in-sealed-segment").unwrap();
        store.append(b"frame-in-next-segment").unwrap();
        drop(store);
        let mut bytes = fs::read(&sealed).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit: CRC must catch it
        fs::write(&sealed, &bytes).unwrap();
        match SegmentStore::open(&scratch.0, config) {
            Err(StoreError::Corrupt(_)) => {}
            other => panic!("sealed damage must be Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn clean_truncation_of_a_sealed_segment_is_a_sequence_gap() {
        // One frame per segment (any append exceeds a 1-byte threshold, so
        // every append rotates first). Truncating a *sealed* segment back
        // to its bare header leaves a file with zero visible damage — only
        // the frame-sequence contiguity check can tell that acknowledged
        // frames vanished.
        let scratch = Scratch::new("gap");
        let config = StoreConfig {
            segment_rotate_bytes: 1,
            fsync: false,
            ..StoreConfig::default()
        };
        let (mut store, _) = SegmentStore::open(&scratch.0, config.clone()).unwrap();
        store.install_snapshot(b"s").unwrap();
        store.append(b"frame-zero").unwrap();
        let sealed = store.segment_path(store.active_segment_seq().unwrap());
        store.append(b"frame-one").unwrap();
        store.append(b"frame-two").unwrap();
        drop(store);

        fs::write(&sealed, &fs::read(&sealed).unwrap()[..6]).unwrap();
        assert!(matches!(
            SegmentStore::open(&scratch.0, config),
            Err(StoreError::Corrupt(
                "write-ahead frame sequence is not contiguous"
            ))
        ));
    }

    #[test]
    fn failed_append_does_not_burn_a_frame_sequence_number() {
        let scratch = Scratch::new("append-fails");
        let (mut store, _) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        store.install_snapshot(b"s").unwrap();
        store.append(b"frame-zero").unwrap();
        // Force the next write to fail (EBADF): swap the active handle for
        // a read-only one on the same file.
        let (seq, good, written) = store.active.take().unwrap();
        let read_only = File::open(store.segment_path(seq)).unwrap();
        store.active = Some((seq, read_only, written));
        assert!(matches!(
            store.append(b"never-written"),
            Err(StoreError::Io { .. })
        ));
        // The caller carries on with a working handle: the retried frame
        // must take the sequence number the failed one never used.
        store.active = Some((seq, good, written));
        store.append(b"frame-one").unwrap();
        drop(store);
        let (_, rec) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        assert_eq!(
            rec.tail,
            vec![b"frame-zero".to_vec(), b"frame-one".to_vec()]
        );
        assert_eq!(rec.torn_frames_dropped, 0);
    }

    #[test]
    fn damaged_manifest_and_snapshot_are_typed_errors() {
        let scratch = Scratch::new("manifest");
        let (mut store, _) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        store.install_snapshot(b"payload").unwrap();
        let snap = scratch
            .0
            .join(format!("snap-{}.bin", store.snapshot_seq().unwrap()));
        drop(store);

        let manifest = scratch.0.join("MANIFEST");
        let good_manifest = fs::read(&manifest).unwrap();
        let good_snap = fs::read(&snap).unwrap();

        // Truncated manifest.
        fs::write(&manifest, &good_manifest[..good_manifest.len() - 2]).unwrap();
        assert!(matches!(
            SegmentStore::open(&scratch.0, no_sync()),
            Err(StoreError::Corrupt(_))
        ));
        fs::write(&manifest, &good_manifest).unwrap();

        // Bit-flipped snapshot payload.
        let mut bad = good_snap.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        fs::write(&snap, &bad).unwrap();
        assert!(matches!(
            SegmentStore::open(&scratch.0, no_sync()),
            Err(StoreError::Corrupt("snapshot frame is damaged"))
        ));
        fs::write(&snap, &good_snap).unwrap();

        // Restored: opens clean again.
        let (_, rec) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"payload"[..]));
    }

    #[test]
    fn failed_install_preserves_the_old_root() {
        // Simulate "crash between root-file write and pointer flip" by
        // hand-writing a newer root file of either kind without touching
        // MANIFEST: recovery must still land on the flipped root.
        for kind in [FULL, DELTA] {
            let scratch = Scratch::new(&format!("no-flip-{}", kind.prefix));
            let (mut store, _) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
            store.install_snapshot(b"durable").unwrap();
            store.append(b"tail-frame").unwrap();
            // An orphaned higher-seq root (never named by the manifest); the
            // delta orphan carries a well-formed link to the real root.
            let mut payload = Vec::new();
            if kind.chained {
                payload.extend_from_slice(&store.snapshot_seq().unwrap().to_le_bytes());
                payload.extend_from_slice(&store.root_digest().unwrap().to_le_bytes());
            }
            payload.extend_from_slice(b"never-flipped");
            drop(store);
            let mut bytes = Vec::new();
            write_header(&mut bytes, kind.magic);
            bytes.extend_from_slice(&frame(0, &payload));
            fs::write(kind.path(&scratch.0, 99), &bytes).unwrap();

            let (store, rec) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
            assert_eq!(rec.snapshot.as_deref(), Some(&b"durable"[..]));
            assert!(
                rec.deltas.is_empty(),
                "{}orphan joined the chain",
                kind.prefix
            );
            assert_eq!(rec.tail, vec![b"tail-frame".to_vec()]);
            // And the writer will never reuse the orphan's sequence number.
            assert!(store.next_seq > 99);
        }
    }

    #[test]
    fn oversized_payloads_are_refused_before_anything_is_written() {
        let scratch = Scratch::new("oversized");
        let (mut store, _) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        store.install_snapshot(b"durable").unwrap();
        store.append(b"first").unwrap();
        let root = store.snapshot_seq();
        let files = fs::read_dir(&scratch.0).unwrap().count();
        // Zeroed and never touched: the check reads only the length.
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        for refused in [store.install_snapshot(&huge), store.append(&huge)] {
            assert!(matches!(
                refused,
                Err(StoreError::FrameTooLarge { len }) if len == huge.len()
            ));
        }
        drop(huge);
        check_frame_len(MAX_FRAME_BYTES).expect("the limit itself is admitted");
        assert_eq!(store.snapshot_seq(), root);
        assert_eq!(fs::read_dir(&scratch.0).unwrap().count(), files);
        // The refused append burned no frame number: the tail carries on.
        store.append(b"second").unwrap();
        drop(store);
        let (_, rec) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"durable"[..]));
        assert_eq!(rec.tail, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(rec.torn_frames_dropped, 0);
    }

    #[test]
    fn delta_chain_round_trips() {
        let scratch = Scratch::new("delta-chain");
        let (mut store, _) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        // The first install must anchor the chain.
        assert!(matches!(
            store.install_delta(b"too-early"),
            Err(StoreError::Corrupt(_))
        ));
        store.install_snapshot(b"base").unwrap();
        store.append(b"tail-a").unwrap();
        store.install_delta(b"delta-one").unwrap();
        store.install_delta(b"delta-two").unwrap();
        store.append(b"tail-b").unwrap();
        assert_eq!(store.chain_len(), 2);
        drop(store);

        let (store, rec) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"base"[..]));
        assert_eq!(
            rec.deltas,
            vec![b"delta-one".to_vec(), b"delta-two".to_vec()]
        );
        // tail-a predates delta-one's root and was folded into it.
        assert_eq!(rec.tail, vec![b"tail-b".to_vec()]);
        assert_eq!(store.chain_len(), 2);
        assert!(store.chain_base_seq().unwrap() < store.snapshot_seq().unwrap());
    }

    #[test]
    fn full_snapshot_rebases_and_collects_the_chain() {
        let scratch = Scratch::new("rebase");
        let config = StoreConfig {
            fsync: false,
            max_chain_len: 2,
            ..StoreConfig::default()
        };
        let (mut store, _) = SegmentStore::open(&scratch.0, config.clone()).unwrap();
        store.install_snapshot(b"base").unwrap();
        assert!(!store.needs_rebase());
        store.install_delta(b"d1").unwrap();
        assert!(!store.needs_rebase());
        store.install_delta(b"d2").unwrap();
        assert!(store.needs_rebase(), "max_chain_len reached");
        store.install_snapshot(b"rebased").unwrap();
        assert_eq!(store.chain_len(), 0);
        assert!(!store.needs_rebase());
        assert_eq!(store.chain_base_seq(), store.snapshot_seq());
        // The superseded chain (and its base) are garbage-collected.
        for entry in fs::read_dir(&scratch.0).unwrap().flatten() {
            let name = entry.file_name().to_str().unwrap().to_string();
            assert!(
                !name.starts_with("dsnap-"),
                "stale chain link {name} survived the rebase"
            );
        }
        drop(store);
        let (_, rec) = SegmentStore::open(&scratch.0, config).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"rebased"[..]));
        assert!(rec.deltas.is_empty());
    }

    #[test]
    fn broken_chain_links_are_typed_errors() {
        let build = |tag: &str| -> (Scratch, PathBuf) {
            let scratch = Scratch::new(tag);
            let (mut store, _) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
            store.install_snapshot(b"base").unwrap();
            store.install_delta(b"delta-mid").unwrap();
            let mid = scratch
                .0
                .join(format!("dsnap-{}.bin", store.snapshot_seq().unwrap()));
            store.install_delta(b"delta-top").unwrap();
            (scratch, mid)
        };

        // Bit flip inside a mid-chain link: its digest no longer matches
        // what the child recorded.
        let (scratch, mid) = build("chain-flip");
        let mut bytes = fs::read(&mid).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&mid, &bytes).unwrap();
        assert!(matches!(
            SegmentStore::open(&scratch.0, no_sync()),
            Err(StoreError::Corrupt(_))
        ));

        // Missing mid-chain link.
        let (scratch, mid) = build("chain-missing");
        fs::remove_file(&mid).unwrap();
        assert!(matches!(
            SegmentStore::open(&scratch.0, no_sync()),
            Err(StoreError::Corrupt(
                "delta chain link is missing from the store directory"
            ))
        ));

        // A stale *different* file at the linked sequence: internally
        // valid, but the digest in the child link exposes it.
        let (scratch, mid) = build("chain-swap");
        let mut forged = Vec::new();
        write_header(&mut forged, MAGIC_STORE_DELTA);
        let mut fp = Vec::new();
        fp.extend_from_slice(&0u64.to_le_bytes());
        fp.extend_from_slice(&0u64.to_le_bytes());
        fp.extend_from_slice(b"forged-payload");
        forged.extend_from_slice(&frame(0, &fp));
        fs::write(&mid, &forged).unwrap();
        assert!(matches!(
            SegmentStore::open(&scratch.0, no_sync()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn delta_install_keeps_live_bytes_bounded_by_chain() {
        let scratch = Scratch::new("delta-live-bytes");
        let (mut store, _) = SegmentStore::open(&scratch.0, no_sync()).unwrap();
        store.install_snapshot(&[0u8; 1024]).unwrap();
        let full = store.live_bytes();
        for _ in 0..3 {
            store.install_delta(&[1u8; 32]).unwrap();
        }
        let chained = store.live_bytes();
        assert!(
            chained < full + 3 * 1024,
            "live bytes grew like full snapshots: {chained} vs base {full}"
        );
        // The chain is still accounted (base + 3 links + manifest + segment).
        assert!(chained > full);
    }

    #[test]
    fn errors_display_usefully() {
        let io = StoreError::Io {
            op: "fsync dir",
            path: PathBuf::from("/tmp/x"),
            source: std::io::Error::other("demo"),
        };
        let decode = StoreError::Decode(DecodeError::Corrupt("demo"));
        let corrupt = StoreError::Corrupt("demo");
        let too_large = StoreError::FrameTooLarge { len: usize::MAX };
        for e in [&io, &decode, &corrupt, &too_large] {
            assert!(!e.to_string().is_empty());
        }
        use std::error::Error;
        assert!(io.source().is_some());
        assert!(decode.source().is_some());
        assert!(corrupt.source().is_none());
        assert!(too_large.source().is_none());
    }
}
