//! The `.rfcg` binary on-disk CSR format and its streaming writer/reader.
//!
//! The scale tier stores multi-million-vertex attributed graphs in a flat
//! little-endian layout that can be written without ever materializing the full
//! graph in memory and read back either streamed (neighbor lists stay on disk,
//! fetched by coalesced positional reads) or fully resident:
//!
//! ```text
//! offset 0   magic      b"RFCG"                     (4 bytes)
//! offset 4   version    u32 = 1
//! offset 8   n          u64   number of vertices
//! offset 16  m          u64   number of undirected edges
//! offset 24  offsets    (n + 1) × u64               entry index into `neighbors`
//! …          neighbors  2m × u32                    sorted adjacency, both directions
//! …          attributes n × u8                      0 = a, 1 = b
//! ```
//!
//! Three layers are provided, lowest first:
//!
//! * [`CsrWriter`] — push vertices **in id order** with their full sorted neighbor
//!   list; neighbor entries stream straight to disk, only the running offset table
//!   (8 bytes/vertex) and attribute bytes stay in memory.
//! * [`EdgeSpool`] — an out-of-core CSR builder for producers that discover edges
//!   in arbitrary order (generators, converters): edges spill to a temporary binary
//!   file while only a degree counter per vertex stays resident; [`EdgeSpool::assemble`]
//!   then builds the final `.rfcg` in vertex-ordered chunks, so peak memory is one
//!   chunk of adjacency (configurable), never the whole edge list.
//! * [`DiskCsr`] — the reader, implementing [`GraphStore`]: offsets and attributes
//!   are resident (9 bytes/vertex), neighbor lists are served from disk through
//!   positional reads that merge nearby requested lists into one read of at most
//!   1 MiB or, with [`DiskCsr::open_resident`], from one fully loaded in-memory
//!   section.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::attr::Attribute;
use crate::graph::{AttributedGraph, VertexId};
use crate::store::GraphStore;

/// Magic bytes opening every `.rfcg` file.
pub const RFCG_MAGIC: [u8; 4] = *b"RFCG";

/// Current format version.
pub const RFCG_VERSION: u32 = 1;

/// Size of the fixed header (magic, version, `n`, `m`).
const HEADER_BYTES: u64 = 24;

/// Bytes per neighbor entry (a little-endian `u32`).
const ENTRY_BYTES: usize = 4;

/// Largest single read [`DiskCsr`] issues, and its largest read buffer (1 MiB).
const READ_BLOCK_BYTES: usize = 1 << 20;

/// Largest coalesced read of the neighbor section, in entries. A single list
/// longer than this is read on its own, in pieces of this size.
const RUN_ENTRIES: u64 = (READ_BLOCK_BYTES / ENTRY_BYTES) as u64;

/// Two requested lists share one read when at most this many unrequested entries
/// (4 KiB, one page) lie between them. Measured on a 250k-vertex, 1.5M-edge
/// store: the peel's later waves took twice as long with no gap as with any gap
/// from 1 KiB to 1 MiB, which were within noise of each other.
const MERGE_GAP_ENTRIES: u64 = (4 << 10) / ENTRY_BYTES as u64;

/// Errors arising while reading or writing `.rfcg` files.
#[derive(Debug)]
pub enum RfcgError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid data (bad magic, wrong version, truncation, unsorted
    /// or out-of-range neighbor lists, duplicate edges, …).
    Format(String),
}

impl std::fmt::Display for RfcgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RfcgError::Io(e) => write!(f, "I/O error: {e}"),
            RfcgError::Format(msg) => write!(f, "invalid .rfcg data: {msg}"),
        }
    }
}

impl std::error::Error for RfcgError {}

impl From<io::Error> for RfcgError {
    fn from(e: io::Error) -> Self {
        RfcgError::Io(e)
    }
}

fn format_err<T>(msg: impl Into<String>) -> Result<T, RfcgError> {
    Err(RfcgError::Format(msg.into()))
}

/// Counts reported by a successful [`CsrWriter::finish`] / [`EdgeSpool::assemble`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrSummary {
    /// Number of vertices written.
    pub num_vertices: usize,
    /// Number of undirected edges written.
    pub num_edges: usize,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// Streaming `.rfcg` writer: vertices are pushed in id order with their complete
/// sorted neighbor lists, and neighbor entries go straight to disk.
///
/// Only the running offset table (`(n + 1) × 8` bytes) and the attribute bytes
/// (`n`) stay in memory, so writing a graph costs O(n) resident memory regardless
/// of the edge count. Callers that cannot produce adjacency in vertex order should
/// go through [`EdgeSpool`] instead.
#[derive(Debug)]
pub struct CsrWriter {
    file: BufWriter<File>,
    n: usize,
    offsets: Vec<u64>,
    attrs: Vec<u8>,
    encode_buf: Vec<u8>,
}

impl CsrWriter {
    /// Creates the output file and positions the write cursor past the (still
    /// unwritten) offset table, ready to stream neighbor entries.
    pub fn create<P: AsRef<Path>>(path: P, num_vertices: usize) -> Result<Self, RfcgError> {
        if num_vertices > u32::MAX as usize {
            return format_err(format!(
                "{num_vertices} vertices exceed the u32 vertex-id space"
            ));
        }
        let mut file = File::create(path)?;
        // Header and offsets are back-filled by `finish`; seeking past them keeps
        // the writer purely sequential for the big section.
        file.seek(SeekFrom::Start(
            HEADER_BYTES + (num_vertices as u64 + 1) * 8,
        ))?;
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0);
        Ok(Self {
            file: BufWriter::with_capacity(1 << 20, file),
            n: num_vertices,
            offsets,
            attrs: Vec::with_capacity(num_vertices),
            encode_buf: Vec::new(),
        })
    }

    /// Number of vertices pushed so far — also the id the next push receives.
    pub fn pushed(&self) -> usize {
        self.attrs.len()
    }

    /// Appends the next vertex (id [`Self::pushed`]) with its attribute and full
    /// sorted neighbor list. The list must be strictly ascending, in range, and
    /// free of self-loops; every undirected edge must eventually appear in both
    /// endpoint lists.
    pub fn push_vertex(
        &mut self,
        attr: Attribute,
        neighbors: &[VertexId],
    ) -> Result<(), RfcgError> {
        let v = self.attrs.len();
        if v >= self.n {
            return format_err(format!("push_vertex beyond declared {} vertices", self.n));
        }
        let mut prev: Option<VertexId> = None;
        self.encode_buf.clear();
        for &u in neighbors {
            if u as usize >= self.n {
                return format_err(format!("vertex {v}: neighbor {u} out of range"));
            }
            if u as usize == v {
                return format_err(format!("vertex {v}: self-loop"));
            }
            if prev.is_some_and(|p| p >= u) {
                return format_err(format!("vertex {v}: neighbor list not strictly ascending"));
            }
            prev = Some(u);
            self.encode_buf.extend_from_slice(&u.to_le_bytes());
        }
        self.file.write_all(&self.encode_buf)?;
        self.attrs.push(self.attribute_byte(attr));
        let last = *self.offsets.last().expect("offsets start non-empty");
        self.offsets.push(last + neighbors.len() as u64);
        Ok(())
    }

    fn attribute_byte(&self, attr: Attribute) -> u8 {
        attr.index() as u8
    }

    /// Writes the attribute section, back-fills the offset table and header, and
    /// closes the file.
    pub fn finish(mut self) -> Result<CsrSummary, RfcgError> {
        if self.attrs.len() != self.n {
            return format_err(format!(
                "finish after {} of {} vertices",
                self.attrs.len(),
                self.n
            ));
        }
        let entries = *self.offsets.last().expect("offsets non-empty");
        if entries % 2 != 0 {
            return format_err(format!(
                "{entries} neighbor entries: undirected adjacency must be even"
            ));
        }
        let m = entries / 2;
        self.file.write_all(&self.attrs)?;
        self.file.flush()?;
        let mut file = self
            .file
            .into_inner()
            .map_err(|e| RfcgError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(0))?;
        let mut head = BufWriter::with_capacity(1 << 20, file);
        head.write_all(&RFCG_MAGIC)?;
        head.write_all(&RFCG_VERSION.to_le_bytes())?;
        head.write_all(&(self.n as u64).to_le_bytes())?;
        head.write_all(&m.to_le_bytes())?;
        for off in &self.offsets {
            head.write_all(&off.to_le_bytes())?;
        }
        head.flush()?;
        let file = head
            .into_inner()
            .map_err(|e| RfcgError::Io(e.into_error()))?;
        let file_bytes = file.metadata()?.len();
        file.sync_all().ok();
        Ok(CsrSummary {
            num_vertices: self.n,
            num_edges: m as usize,
            file_bytes,
        })
    }
}

/// Writes an in-memory [`AttributedGraph`] as a `.rfcg` file (the `convert` path
/// for graphs that already fit in memory).
pub fn write_rfcg<P: AsRef<Path>>(
    graph: &AttributedGraph,
    path: P,
) -> Result<CsrSummary, RfcgError> {
    let mut writer = CsrWriter::create(path, graph.num_vertices())?;
    for v in graph.vertices() {
        writer.push_vertex(graph.attribute(v), graph.neighbors(v))?;
    }
    writer.finish()
}

static SPOOL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Out-of-core CSR builder: accepts undirected edges in **any order**, spilling
/// them to a temporary binary file, then assembles the final `.rfcg` in
/// vertex-ordered chunks.
///
/// Resident memory while spooling is one `u32` degree counter per vertex; while
/// assembling it is one chunk of adjacency (bounded by the `chunk_entries`
/// argument) plus the [`CsrWriter`] offset table. Duplicate edges are rejected at
/// assembly time (they would corrupt the degree-derived layout); self-loops and
/// out-of-range endpoints are rejected immediately.
#[derive(Debug)]
pub struct EdgeSpool {
    path: PathBuf,
    writer: BufWriter<File>,
    degrees: Vec<u32>,
    edges: u64,
}

impl EdgeSpool {
    /// Creates a spool backed by the given temporary file path.
    pub fn create<P: AsRef<Path>>(path: P, num_vertices: usize) -> Result<Self, RfcgError> {
        if num_vertices > u32::MAX as usize {
            return format_err(format!(
                "{num_vertices} vertices exceed the u32 vertex-id space"
            ));
        }
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self {
            path,
            writer: BufWriter::with_capacity(1 << 20, file),
            degrees: vec![0; num_vertices],
            edges: 0,
        })
    }

    /// Creates a spool backed by a unique file in the system temp directory.
    pub fn temp(num_vertices: usize) -> Result<Self, RfcgError> {
        let unique = SPOOL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("rfcg_spool_{}_{unique}.edges", std::process::id()));
        Self::create(path, num_vertices)
    }

    /// Number of declared vertices.
    pub fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    /// Number of edges spooled so far.
    pub fn num_edges(&self) -> u64 {
        self.edges
    }

    /// Spools one undirected edge. Rejects self-loops and out-of-range endpoints;
    /// duplicates are *not* detected here (that would need edge-set memory) but
    /// fail [`EdgeSpool::assemble`].
    pub fn push_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), RfcgError> {
        let n = self.degrees.len();
        if u as usize >= n || v as usize >= n {
            return format_err(format!("edge ({u}, {v}) out of range for {n} vertices"));
        }
        if u == v {
            return format_err(format!("self-loop ({u}, {v})"));
        }
        self.writer.write_all(&u.to_le_bytes())?;
        self.writer.write_all(&v.to_le_bytes())?;
        self.degrees[u as usize] += 1;
        self.degrees[v as usize] += 1;
        self.edges += 1;
        Ok(())
    }

    /// Assembles the spooled edges into `out` as a `.rfcg` file, processing
    /// vertices in chunks whose adjacency totals at most `chunk_entries` neighbor
    /// entries (≈ `4 × chunk_entries` bytes resident). Each chunk costs one
    /// sequential scan of the spool file. The spool file is removed on success.
    pub fn assemble<P: AsRef<Path>>(
        mut self,
        attributes: &[Attribute],
        out: P,
        chunk_entries: usize,
    ) -> Result<CsrSummary, RfcgError> {
        let n = self.degrees.len();
        if attributes.len() != n {
            return format_err(format!("{} attributes for {n} vertices", attributes.len()));
        }
        self.writer.flush()?;
        let chunk_entries = chunk_entries.max(1);
        let mut writer = CsrWriter::create(out, n)?;
        let mut lo = 0usize;
        while lo < n || (n == 0 && writer.pushed() == 0) {
            if n == 0 {
                break;
            }
            // Greedy chunk: extend while the adjacency fits the budget (always at
            // least one vertex, so pathological hubs still assemble).
            let mut hi = lo;
            let mut entries = 0usize;
            while hi < n {
                let d = self.degrees[hi] as usize;
                if hi > lo && entries + d > chunk_entries {
                    break;
                }
                entries += d;
                hi += 1;
            }
            self.assemble_chunk(attributes, &mut writer, lo, hi, entries)?;
            lo = hi;
        }
        let summary = writer.finish()?;
        std::fs::remove_file(&self.path).ok();
        Ok(summary)
    }

    /// Collects the adjacency of vertices `lo..hi` from one sequential spool scan,
    /// sorts each list, and pushes the chunk to `writer`.
    fn assemble_chunk(
        &self,
        attributes: &[Attribute],
        writer: &mut CsrWriter,
        lo: usize,
        hi: usize,
        entries: usize,
    ) -> Result<(), RfcgError> {
        // Local CSR layout for the chunk.
        let mut local_offsets = Vec::with_capacity(hi - lo + 1);
        local_offsets.push(0usize);
        for v in lo..hi {
            let last = *local_offsets.last().expect("non-empty");
            local_offsets.push(last + self.degrees[v] as usize);
        }
        debug_assert_eq!(*local_offsets.last().unwrap(), entries);
        let mut data = vec![0 as VertexId; entries];
        let mut cursor = local_offsets[..hi - lo].to_vec();

        let mut reader = BufReader::with_capacity(1 << 20, File::open(&self.path)?);
        let mut record = [0u8; 8];
        for _ in 0..self.edges {
            reader.read_exact(&mut record)?;
            let u = u32::from_le_bytes(record[0..4].try_into().expect("4 bytes"));
            let v = u32::from_le_bytes(record[4..8].try_into().expect("4 bytes"));
            if (lo..hi).contains(&(u as usize)) {
                let slot = &mut cursor[u as usize - lo];
                data[*slot] = v;
                *slot += 1;
            }
            if (lo..hi).contains(&(v as usize)) {
                let slot = &mut cursor[v as usize - lo];
                data[*slot] = u;
                *slot += 1;
            }
        }
        for v in lo..hi {
            let slice = &mut data[local_offsets[v - lo]..local_offsets[v - lo + 1]];
            slice.sort_unstable();
            if slice.windows(2).any(|w| w[0] == w[1]) {
                return format_err(format!("duplicate edge at vertex {v}"));
            }
            writer.push_vertex(attributes[v], slice)?;
        }
        Ok(())
    }
}

/// Reader for `.rfcg` files, implementing [`GraphStore`].
///
/// The offset table and attributes are always resident (9 bytes per vertex: an
/// 8-byte offset plus 1 attribute byte); neighbor lists are read from disk on
/// demand unless the store was opened with [`DiskCsr::open_resident`].
///
/// Every read is positional (`read_exact_at`), so one store can serve several
/// threads at once: no read depends on a shared file cursor.
#[derive(Debug)]
pub struct DiskCsr {
    file: File,
    num_vertices: usize,
    num_edges: usize,
    offsets: Vec<u64>,
    attrs: Vec<Attribute>,
    /// Fully loaded neighbor section (resident mode only).
    resident: Option<Vec<VertexId>>,
    /// Byte position of the neighbor section.
    neighbors_pos: u64,
    /// Neighbor-section bytes served from disk after open (streaming mode only;
    /// resident mode answers from memory and never bumps this).
    bytes_read: AtomicU64,
}

impl DiskCsr {
    /// Opens a `.rfcg` file in streaming mode: offsets and attributes are loaded
    /// and validated, neighbor lists stay on disk.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, RfcgError> {
        Self::open_with(path, false)
    }

    /// Opens a `.rfcg` file with the neighbor section fully loaded into memory —
    /// random access without disk reads, at 8 bytes/edge resident cost.
    pub fn open_resident<P: AsRef<Path>>(path: P) -> Result<Self, RfcgError> {
        Self::open_with(path, true)
    }

    fn open_with<P: AsRef<Path>>(path: P, resident: bool) -> Result<Self, RfcgError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_BYTES {
            return format_err("truncated header");
        }
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact_at(&mut header, 0)?;
        let magic = &header[0..4];
        if magic != RFCG_MAGIC {
            return format_err(format!("bad magic {magic:?} (expected \"RFCG\")"));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != RFCG_VERSION {
            return format_err(format!(
                "unsupported version {version} (this build reads version {RFCG_VERSION})"
            ));
        }
        let n = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let m = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        if n > u32::MAX as u64 {
            return format_err(format!("{n} vertices exceed the u32 vertex-id space"));
        }
        let n = n as usize;
        // Checked: a corrupt `m` must not wrap around to a plausible length.
        let expected = m
            .checked_mul(2 * ENTRY_BYTES as u64)
            .and_then(|neighbors| neighbors.checked_add(HEADER_BYTES + (n as u64 + 1) * 8))
            .and_then(|len| len.checked_add(n as u64));
        if expected != Some(file_len) {
            let expected = expected.map_or("more than 2^64".to_string(), |e| e.to_string());
            return format_err(format!(
                "file is {file_len} bytes but n={n}, m={m} implies {expected} (truncated or corrupt)"
            ));
        }

        // The offset table, in reads of at most one block.
        let neighbors_pos = HEADER_BYTES + (n as u64 + 1) * 8;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut block = vec![0u8; READ_BLOCK_BYTES.min((n + 1) * 8)];
        let mut pos = HEADER_BYTES;
        while pos < neighbors_pos {
            let bytes = &mut block[..(neighbors_pos - pos).min(READ_BLOCK_BYTES as u64) as usize];
            file.read_exact_at(bytes, pos)?;
            offsets.extend(
                bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
            );
            pos += bytes.len() as u64;
        }
        drop(block);
        if offsets[0] != 0 || *offsets.last().expect("n+1 entries") != 2 * m {
            return format_err("offset table does not span the neighbor section");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return format_err("offset table is not monotone");
        }

        let entries = 2 * m as usize;
        let loaded = if resident {
            let mut bytes = vec![0u8; entries * ENTRY_BYTES];
            file.read_exact_at(&mut bytes, neighbors_pos)?;
            let mut nbrs = Vec::with_capacity(entries);
            for chunk in bytes.chunks_exact(ENTRY_BYTES) {
                nbrs.push(u32::from_le_bytes(chunk.try_into().expect("4 bytes")));
            }
            Some(nbrs)
        } else {
            None
        };

        let mut attr_bytes = vec![0u8; n];
        file.read_exact_at(
            &mut attr_bytes,
            neighbors_pos + (entries * ENTRY_BYTES) as u64,
        )?;
        let mut attrs = Vec::with_capacity(n);
        for (v, &b) in attr_bytes.iter().enumerate() {
            match b {
                0 => attrs.push(Attribute::A),
                1 => attrs.push(Attribute::B),
                other => return format_err(format!("vertex {v}: invalid attribute byte {other}")),
            }
        }

        let csr = Self {
            file,
            num_vertices: n,
            num_edges: m as usize,
            offsets,
            attrs,
            resident: loaded,
            neighbors_pos,
            bytes_read: AtomicU64::new(0),
        };
        if let Some(nbrs) = &csr.resident {
            csr.validate_lists(nbrs)?;
        }
        Ok(csr)
    }

    /// Checks that every resident neighbor list is strictly ascending, in range
    /// and self-loop free (resident mode validates eagerly; streaming mode checks
    /// ids as they are read).
    fn validate_lists(&self, nbrs: &[VertexId]) -> Result<(), RfcgError> {
        for v in 0..self.num_vertices {
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            let list = &nbrs[lo..hi];
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return format_err(format!("vertex {v}: neighbor list not strictly ascending"));
            }
            if list
                .iter()
                .any(|&u| u as usize >= self.num_vertices || u as usize == v)
            {
                return format_err(format!("vertex {v}: neighbor out of range or self-loop"));
            }
        }
        Ok(())
    }

    /// Whether the neighbor section is fully loaded in memory.
    pub fn is_resident(&self) -> bool {
        self.resident.is_some()
    }

    /// Neighbor-section bytes read from disk since open, by every read path,
    /// including the unrequested entries a coalesced read spans between two
    /// requested lists. Always 0 in resident mode, where every query is answered
    /// from memory.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Materializes the store as an in-memory [`AttributedGraph`] (intended for
    /// residual-scale graphs and tests, not multi-million-vertex inputs).
    pub fn to_graph(&self) -> Result<AttributedGraph, RfcgError> {
        let mut builder = crate::builder::GraphBuilder::with_attributes(self.attrs.clone());
        let mut scan_err: Option<RfcgError> = None;
        self.scan_adjacency(&mut |v, nbrs| {
            if scan_err.is_some() {
                return;
            }
            for &u in nbrs {
                if u as usize >= self.num_vertices || u == v {
                    scan_err = Some(RfcgError::Format(format!(
                        "vertex {v}: neighbor {u} out of range or self-loop"
                    )));
                    return;
                }
                if v < u {
                    builder.add_edge(v, u);
                }
            }
        })?;
        if let Some(e) = scan_err {
            return Err(e);
        }
        let graph = builder
            .build()
            .map_err(|e| RfcgError::Format(e.to_string()))?;
        if graph.num_edges() != self.num_edges {
            return format_err(format!(
                "adjacency is not symmetric: header claims {} edges, lists encode {}",
                self.num_edges,
                graph.num_edges()
            ));
        }
        Ok(graph)
    }

    /// The neighbor-entry range `lo..hi` of `v`'s list.
    fn entries(&self, v: VertexId) -> (u64, u64) {
        (self.offsets[v as usize], self.offsets[v as usize + 1])
    }

    /// Fills `bytes` from the neighbor section, starting at entry `entry`, with
    /// one positional read.
    fn read_entries_at(&self, entry: u64, bytes: &mut [u8]) -> io::Result<()> {
        self.file
            .read_exact_at(bytes, self.neighbors_pos + entry * ENTRY_BYTES as u64)?;
        self.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Decodes the entries in `bytes`, part of `v`'s list, onto `out`. Streaming
    /// mode checks ids as they are read, so an id that is no vertex is an error.
    fn decode_entries(&self, v: VertexId, bytes: &[u8], out: &mut Vec<VertexId>) -> io::Result<()> {
        let from = out.len();
        out.extend(
            bytes
                .chunks_exact(ENTRY_BYTES)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))),
        );
        match out[from..]
            .iter()
            .find(|&&u| u as usize >= self.num_vertices)
        {
            Some(u) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("vertex {v}: neighbor {u} out of range"),
            )),
            None => Ok(()),
        }
    }

    /// Appends `v`'s list to `out`, read through `stage` in as few positional
    /// reads as the stage's size allows.
    fn read_list(&self, v: VertexId, stage: &mut [u8], out: &mut Vec<VertexId>) -> io::Result<()> {
        let (mut lo, hi) = self.entries(v);
        let stage_entries = (stage.len() / ENTRY_BYTES) as u64;
        while lo < hi {
            let take = (hi - lo).min(stage_entries);
            let bytes = &mut stage[..take as usize * ENTRY_BYTES];
            self.read_entries_at(lo, bytes)?;
            self.decode_entries(v, bytes, out)?;
            lo += take;
        }
        Ok(())
    }

    /// Calls `f(v, neighbors)` for each of `vertices`, in the order given.
    ///
    /// Streaming mode groups consecutive requested vertices whose lists lie at
    /// most [`MERGE_GAP_ENTRIES`] apart into one run of at most [`RUN_ENTRIES`],
    /// and reads each run with one positional read into one reused buffer. A run
    /// never goes backwards in the file, so ascending ids coalesce best; other
    /// orders are still answered correctly, at one read per break in order.
    fn visit_lists<I>(
        &self,
        vertices: I,
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> io::Result<()>
    where
        I: Iterator<Item = VertexId> + Clone,
    {
        if let Some(nbrs) = &self.resident {
            for v in vertices {
                let (lo, hi) = self.entries(v);
                f(v, &nbrs[lo as usize..hi as usize]);
            }
            return Ok(());
        }
        // Grown to the largest run read so far, so it is zeroed at most once.
        let mut stage: Vec<u8> = Vec::new();
        let mut list: Vec<VertexId> = Vec::new();
        let mut pending = vertices.peekable();
        loop {
            let run = pending.clone();
            let Some(first) = pending.next() else {
                return Ok(());
            };
            let (start, mut end) = self.entries(first);
            let mut len = 1;
            while let Some(&v) = pending.peek() {
                let (lo, hi) = self.entries(v);
                if lo < end || lo - end > MERGE_GAP_ENTRIES || hi - start > RUN_ENTRIES {
                    break;
                }
                end = hi;
                len += 1;
                pending.next();
            }
            let need = (end - start).min(RUN_ENTRIES) as usize * ENTRY_BYTES;
            if stage.len() < need {
                stage.resize(need, 0);
            }
            let bytes = &mut stage[..need];
            list.clear();
            if len == 1 {
                // A lone list may be longer than a run: read it in pieces.
                self.read_list(first, bytes, &mut list)?;
                f(first, &list);
                continue;
            }
            self.read_entries_at(start, bytes)?;
            for v in run.take(len) {
                let (lo, hi) = self.entries(v);
                let at = |e: u64| (e - start) as usize * ENTRY_BYTES;
                list.clear();
                self.decode_entries(v, &bytes[at(lo)..at(hi)], &mut list)?;
                f(v, &list);
            }
        }
    }
}

impl GraphStore for DiskCsr {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn attribute(&self, v: VertexId) -> Attribute {
        self.attrs[v as usize]
    }

    fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    fn neighbors_into(&self, v: VertexId, buf: &mut Vec<VertexId>) -> io::Result<()> {
        if let Some(nbrs) = &self.resident {
            let (lo, hi) = self.entries(v);
            buf.extend_from_slice(&nbrs[lo as usize..hi as usize]);
            return Ok(());
        }
        // A stack stage keeps a lookup allocation free; longer lists take
        // several reads.
        self.read_list(v, &mut [0u8; 4096], buf)
    }

    fn scan_adjacency(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        self.visit_lists(0..self.num_vertices as VertexId, f)
    }

    fn visit_adjacency(
        &self,
        ascending: &[VertexId],
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> io::Result<()> {
        self.visit_lists(ascending.iter().copied(), f)
    }

    fn resident_bytes(&self) -> usize {
        self.offsets.len() * 8
            + self.attrs.len()
            + self
                .resident
                .as_ref()
                .map_or(0, |n| n.len() * std::mem::size_of::<VertexId>())
    }

    fn disk_bytes_read(&self) -> u64 {
        self.bytes_read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::fixtures;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rfc_disk_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    #[test]
    fn writer_roundtrip_matches_graph() {
        let g = fixtures::fig1_graph();
        let path = temp_path("fig1.rfcg");
        let summary = write_rfcg(&g, &path).unwrap();
        assert_eq!(summary.num_vertices, g.num_vertices());
        assert_eq!(summary.num_edges, g.num_edges());

        for resident in [false, true] {
            let store = if resident {
                DiskCsr::open_resident(&path).unwrap()
            } else {
                DiskCsr::open(&path).unwrap()
            };
            assert_eq!(store.is_resident(), resident);
            assert_eq!(GraphStore::num_vertices(&store), g.num_vertices());
            assert_eq!(GraphStore::num_edges(&store), g.num_edges());
            let mut buf = Vec::new();
            for v in g.vertices() {
                assert_eq!(GraphStore::degree(&store, v), g.degree(v));
                assert_eq!(GraphStore::attribute(&store, v), g.attribute(v));
                buf.clear();
                store.neighbors_into(v, &mut buf).unwrap();
                assert_eq!(buf.as_slice(), g.neighbors(v));
            }
            assert_eq!(store.to_graph().unwrap(), g);
            // Streaming mode keeps the neighbor section on disk, so the per-vertex
            // fetches plus the to_graph scan each cost the full section (2m × 4
            // bytes); resident mode never touches the disk after open.
            if resident {
                assert_eq!(store.bytes_read(), 0);
            } else {
                assert!(store.resident_bytes() < summary.file_bytes as usize);
                assert_eq!(store.bytes_read(), 2 * 2 * g.num_edges() as u64 * 4);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spool_assembles_edges_in_any_order() {
        let g = fixtures::fig1_graph();
        let path = temp_path("spooled.rfcg");
        let mut spool = EdgeSpool::temp(g.num_vertices()).unwrap();
        // Reverse order, swapped endpoints: assembly must canonicalize.
        for &(u, v) in g.edge_list().iter().rev() {
            spool.push_edge(v, u).unwrap();
        }
        // Tiny chunk budget forces the multi-chunk, multi-scan path.
        let summary = spool.assemble(g.attributes(), &path, 7).unwrap();
        assert_eq!(summary.num_edges, g.num_edges());
        let store = DiskCsr::open(&path).unwrap();
        assert_eq!(store.to_graph().unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spool_rejects_bad_edges_and_duplicates() {
        let mut spool = EdgeSpool::temp(4).unwrap();
        assert!(matches!(spool.push_edge(1, 1), Err(RfcgError::Format(_))));
        assert!(matches!(spool.push_edge(0, 9), Err(RfcgError::Format(_))));
        spool.push_edge(0, 1).unwrap();
        spool.push_edge(1, 0).unwrap(); // duplicate, caught at assembly
        let path = temp_path("dups.rfcg");
        let err = spool
            .assemble(&[Attribute::A; 4], &path, 1 << 16)
            .unwrap_err();
        assert!(err.to_string().contains("duplicate edge"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_validates_contract() {
        let path = temp_path("contract.rfcg");
        let mut w = CsrWriter::create(&path, 3).unwrap();
        assert!(w.push_vertex(Attribute::A, &[0]).is_err()); // self-loop
        assert!(w.push_vertex(Attribute::A, &[5]).is_err()); // out of range
        assert!(w.push_vertex(Attribute::A, &[2, 1]).is_err()); // not ascending
        assert!(w.push_vertex(Attribute::A, &[1, 1]).is_err()); // duplicate
        w.push_vertex(Attribute::A, &[1]).unwrap();
        w.push_vertex(Attribute::B, &[0, 2]).unwrap();
        // Finishing early (2 of 3 vertices) is an error.
        let w2 = CsrWriter::create(temp_path("early.rfcg"), 3).unwrap();
        assert!(w2.finish().is_err());
        // Odd entry total (asymmetric adjacency) is an error.
        w.push_vertex(Attribute::A, &[]).unwrap();
        assert!(w.finish().is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(temp_path("early.rfcg")).ok();
    }

    #[test]
    fn open_rejects_corruption() {
        let g = fixtures::balanced_clique(6);
        let path = temp_path("corrupt.rfcg");
        write_rfcg(&g, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncated file.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(DiskCsr::open(&path), Err(RfcgError::Format(_))));
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = DiskCsr::open(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        // Wrong version.
        let mut bad = good.clone();
        bad[4] = 99;
        std::fs::write(&path, &bad).unwrap();
        let err = DiskCsr::open(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Header shorter than the fixed header.
        std::fs::write(&path, b"RF").unwrap();
        assert!(DiskCsr::open(&path).is_err());
        // Corrupt attribute byte.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] = 7;
        std::fs::write(&path, &bad).unwrap();
        let err = DiskCsr::open(&path).unwrap_err();
        assert!(err.to_string().contains("attribute"), "{err}");
        // Resident mode validates neighbor lists eagerly: corrupt one entry.
        let mut bad = good.clone();
        let neighbors_pos = (HEADER_BYTES + (6 + 1) * 8) as usize;
        bad[neighbors_pos..neighbors_pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(DiskCsr::open_resident(&path).is_err());
        // Missing file is an Io error, not a panic.
        assert!(matches!(
            DiskCsr::open(temp_path("missing.rfcg")),
            Err(RfcgError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_and_isolated_vertices_roundtrip() {
        for g in [
            GraphBuilder::new(0).build().unwrap(),
            GraphBuilder::new(5).build().unwrap(),
        ] {
            let path = temp_path(&format!("empty_{}.rfcg", g.num_vertices()));
            write_rfcg(&g, &path).unwrap();
            let store = DiskCsr::open(&path).unwrap();
            assert_eq!(GraphStore::num_vertices(&store), g.num_vertices());
            assert_eq!(GraphStore::num_edges(&store), 0);
            assert_eq!(store.to_graph().unwrap(), g);
            let mut visited = 0;
            store
                .scan_adjacency(&mut |_, nbrs| {
                    assert!(nbrs.is_empty());
                    visited += 1;
                })
                .unwrap();
            assert_eq!(visited, g.num_vertices());
            std::fs::remove_file(&path).ok();
        }
    }
}
