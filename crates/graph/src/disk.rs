//! Relocatable on-disk CSR format: zero-copy mmap loading and a
//! streaming two-pass counting-sort builder.
//!
//! The file carries the same three flat arrays as the resident
//! [`Graph`] — `offsets`, canonical `edges`, and the `csr` adjacency —
//! behind a versioned, fingerprint-stamped header. Everything is
//! little-endian and 8-byte aligned, so on little-endian hosts the
//! loader maps the file (`mmap` on unix, a buffered read elsewhere) and
//! hands the engine slices *into the mapping*: a graph with `n ≫ 10^6`
//! becomes queryable without ever owning its arrays in RAM.
//!
//! ```text
//! byte 0   magic "PTCSRv1\n"
//!      8   endian tag 0x1A2B3C4D (LE; byte-swapped ⇒ WrongEndian)
//!     12   format version (u32)
//!     16   n (u64)              24  m (u64)
//!     32   content fingerprint (u128)
//!     48   file length (u64)    56  reserved
//!     64   offsets  — (n+1) × u32, padded to 8
//!      .   edges    — m × (u32 u, u32 v), canonical u < v, sorted
//!      .   csr      — 2m × (u32 neighbour, u32 edge id), rows sorted
//! ```
//!
//! The loader validates the header, the section geometry against the
//! file length, every CSR invariant (offsets monotone, ids in range,
//! rows sorted, adjacency consistent with the edge list) and recomputes
//! the fingerprint against the stamp — corrupted or truncated files
//! surface as typed [`DiskError`]s, never panics or UB.
//!
//! [`stream_to_disk`] builds such a file from an [`EdgeSource`] in two
//! passes (count, then place) using O(n + max bucket) memory: the full
//! edge vector never exists in RAM, which is what makes out-of-core
//! ingest of `n ≫ 10^6` generator graphs possible. The two sources are
//! the ones the in-memory route reads: a closed-form generator spec
//! ([`crate::generators::spec::StreamableSpec`]) and an edge-list
//! document, streamed from its text ([`crate::io::EdgeList`]).

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::fingerprint::{Digest, Fingerprint};
use crate::io::ParseGraphError;
use crate::{EdgeId, Graph, NodeId};

const MAGIC: [u8; 8] = *b"PTCSRv1\n";
const ENDIAN_TAG: u32 = 0x1A2B_3C4D;
const VERSION: u32 = 1;
const HEADER_LEN: usize = 64;

/// Error reading, writing or streaming an on-disk CSR file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// An underlying I/O operation failed (message form keeps the error
    /// `Clone`/`PartialEq` for the service layer).
    Io(String),
    /// The file does not start with the CSR magic.
    BadMagic,
    /// The magic matched but the endianness tag is byte-swapped: the
    /// file was written on an opposite-endian host.
    WrongEndian,
    /// Unknown format version.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file is shorter than its header-declared geometry.
    Truncated {
        /// Bytes the header geometry requires.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// A structural invariant of the CSR content is violated.
    Corrupt {
        /// Which invariant failed.
        what: &'static str,
    },
    /// The recomputed content fingerprint disagrees with the stamp.
    FingerprintMismatch {
        /// Fingerprint stamped in the header.
        stamped: Fingerprint,
        /// Fingerprint recomputed from the mapped content.
        computed: Fingerprint,
    },
    /// The graph exceeds a format limit (ids and adjacency offsets must
    /// fit `u32`, sections must fit the address space).
    TooLarge {
        /// Which quantity overflowed.
        what: &'static str,
    },
    /// An edge-list source failed to parse.
    Parse(ParseGraphError),
    /// An edge source produced an invalid edge.
    Graph(crate::GraphError),
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Io(msg) => write!(f, "i/o error: {msg}"),
            DiskError::BadMagic => f.write_str("not an on-disk CSR file (bad magic)"),
            DiskError::WrongEndian => f.write_str("on-disk CSR written with opposite endianness"),
            DiskError::BadVersion { found } => {
                write!(f, "unsupported on-disk CSR version {found}")
            }
            DiskError::Truncated { expected, found } => {
                write!(f, "truncated CSR file: need {expected} bytes, have {found}")
            }
            DiskError::Corrupt { what } => write!(f, "corrupt CSR file: {what}"),
            DiskError::FingerprintMismatch { stamped, computed } => write!(
                f,
                "CSR fingerprint mismatch: header says {stamped}, content is {computed}"
            ),
            DiskError::TooLarge { what } => write!(f, "graph too large for CSR format: {what}"),
            DiskError::Parse(e) => write!(f, "edge-list source: {e}"),
            DiskError::Graph(e) => write!(f, "invalid edge from source: {e}"),
        }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskError::Parse(e) => Some(e),
            DiskError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DiskError {
    fn from(e: io::Error) -> Self {
        DiskError::Io(e.to_string())
    }
}

impl From<ParseGraphError> for DiskError {
    fn from(e: ParseGraphError) -> Self {
        DiskError::Parse(e)
    }
}

impl From<crate::GraphError> for DiskError {
    fn from(e: crate::GraphError) -> Self {
        DiskError::Graph(e)
    }
}

/// Byte layout of one file, derived from `(n, m)`.
struct Layout {
    offsets_at: usize,
    edges_at: usize,
    csr_at: usize,
    file_len: u64,
}

fn align8(x: u64) -> u64 {
    (x + 7) & !7
}

fn layout(n: u64, m: u64) -> Result<Layout, DiskError> {
    if m.checked_mul(2).is_none() || 2 * m > u64::from(u32::MAX) {
        return Err(DiskError::TooLarge {
            what: "2m adjacency entries exceed u32 offsets",
        });
    }
    if n >= u64::from(u32::MAX) {
        return Err(DiskError::TooLarge {
            what: "node count exceeds u32 ids",
        });
    }
    let offsets_at = HEADER_LEN as u64;
    let edges_at = align8(offsets_at + (n + 1) * 4);
    let csr_at = edges_at + m * 8;
    let file_len = csr_at + 2 * m * 8;
    if usize::try_from(file_len).is_err() {
        return Err(DiskError::TooLarge {
            what: "file exceeds the address space",
        });
    }
    Ok(Layout {
        offsets_at: offsets_at as usize,
        edges_at: edges_at as usize,
        csr_at: csr_at as usize,
        file_len,
    })
}

fn encode_header(n: u64, m: u64, fingerprint: Fingerprint, file_len: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
    h[12..16].copy_from_slice(&VERSION.to_le_bytes());
    h[16..24].copy_from_slice(&n.to_le_bytes());
    h[24..32].copy_from_slice(&m.to_le_bytes());
    h[32..48].copy_from_slice(&fingerprint.0.to_le_bytes());
    h[48..56].copy_from_slice(&file_len.to_le_bytes());
    h
}

/// Decoded header fields (validated magic / endianness / version).
struct Header {
    n: u64,
    m: u64,
    fingerprint: Fingerprint,
    file_len: u64,
}

fn decode_header(bytes: &[u8]) -> Result<Header, DiskError> {
    if bytes.len() < HEADER_LEN {
        return Err(DiskError::Truncated {
            expected: HEADER_LEN as u64,
            found: bytes.len() as u64,
        });
    }
    if bytes[0..8] != MAGIC {
        return Err(DiskError::BadMagic);
    }
    let le = |r: std::ops::Range<usize>| -> u64 {
        let mut b = [0u8; 8];
        b[..r.len()].copy_from_slice(&bytes[r]);
        u64::from_le_bytes(b)
    };
    let tag = le(8..12) as u32;
    if tag == ENDIAN_TAG.swap_bytes() {
        return Err(DiskError::WrongEndian);
    }
    if tag != ENDIAN_TAG {
        return Err(DiskError::BadMagic);
    }
    let version = le(12..16) as u32;
    if version != VERSION {
        return Err(DiskError::BadVersion { found: version });
    }
    let mut fp = [0u8; 16];
    fp.copy_from_slice(&bytes[32..48]);
    Ok(Header {
        n: le(16..24),
        m: le(24..32),
        fingerprint: Fingerprint(u128::from_le_bytes(fp)),
        file_len: le(48..56),
    })
}

/// Memory mapping behind a safe RAII wrapper (unix only; everyone else
/// takes the buffered path). The workspace is offline, so the `mmap` /
/// `munmap` prototypes are declared directly — every unix target links
/// them through libc already, the same precedent as the CLI's `signal`
/// handler.
#[cfg(all(unix, target_pointer_width = "64"))]
mod mm {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private mapping of a whole file.
    pub struct Map {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ-only over an immutable spill
    // file; no interior mutability, so shared references are fine
    // across threads.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        pub fn new(file: &File, len: usize) -> io::Result<Map> {
            assert!(len > 0, "cannot map an empty file");
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Map { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len come from a successful mmap; the mapping
            // lives until Drop.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: exactly the region returned by mmap.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// The bytes behind a loaded file: an OS mapping where available, an
/// 8-byte-aligned in-RAM copy otherwise.
enum Backing {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(mm::Map),
    /// `Vec<u64>` (not `Vec<u8>`) so the buffer is 8-byte aligned like
    /// a page-aligned mapping; the second field is the real byte length.
    Buffered(Vec<u64>, usize),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(m) => m.bytes(),
            Backing::Buffered(words, len) => {
                // SAFETY: the Vec owns at least `len` initialized bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *len) }
            }
        }
    }
}

/// A validated on-disk CSR held open behind a [`Graph`]'s mapped tier.
///
/// Accessors reinterpret the mapped bytes as the typed CSR slices; the
/// loader has already verified layout compatibility, alignment, section
/// bounds, every structural invariant and the fingerprint stamp.
pub struct MappedCsr {
    backing: Backing,
    n: usize,
    m: usize,
    fingerprint: Fingerprint,
    layout: Layout,
}

impl MappedCsr {
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    pub(crate) fn offsets(&self) -> &[u32] {
        // SAFETY: bounds and 4-byte alignment validated at load.
        unsafe { self.section(self.layout.offsets_at, self.n + 1) }
    }

    pub(crate) fn edges(&self) -> &[(NodeId, NodeId)] {
        // SAFETY: bounds/alignment validated; NodeId is
        // repr(transparent) over u32 and the pair layout was self-checked.
        unsafe { self.section(self.layout.edges_at, self.m) }
    }

    pub(crate) fn csr(&self) -> &[(NodeId, EdgeId)] {
        // SAFETY: as for `edges`.
        unsafe { self.section(self.layout.csr_at, 2 * self.m) }
    }

    /// # Safety
    ///
    /// `at..at + count * size_of::<T>()` must lie inside the backing
    /// bytes, aligned for `T`, and `T` must be valid for any bit
    /// pattern found there — all established by `load` validation.
    unsafe fn section<T>(&self, at: usize, count: usize) -> &[T] {
        let bytes = self.backing.bytes();
        debug_assert!(at + count * std::mem::size_of::<T>() <= bytes.len());
        debug_assert_eq!(at % std::mem::align_of::<T>(), 0);
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        std::slice::from_raw_parts(bytes.as_ptr().add(at).cast::<T>(), count)
    }
}

/// Runtime proof that `(NodeId, NodeId)` / `(NodeId, EdgeId)` pairs are
/// layout-identical to `(u32, u32)` little-endian words on this target,
/// which the zero-copy casts rely on. The ids are `repr(transparent)`,
/// but tuple layout is formally unspecified, so the loader checks once
/// per call instead of assuming.
fn id_layout_is_transparent() -> bool {
    use std::mem::{align_of, size_of};
    if size_of::<(NodeId, NodeId)>() != 8
        || align_of::<(NodeId, NodeId)>() != 4
        || size_of::<(NodeId, EdgeId)>() != 8
        || align_of::<(NodeId, EdgeId)>() != 4
    {
        return false;
    }
    let nn: [u32; 2] = unsafe { std::mem::transmute((NodeId::new(1), NodeId::new(2))) };
    let ne: [u32; 2] = unsafe { std::mem::transmute((NodeId::new(3), EdgeId::new(4))) };
    nn == [1, 2] && ne == [3, 4]
}

/// Validates header geometry plus every CSR structural invariant and
/// the fingerprint stamp over an already-loaded byte image.
fn validate(bytes: &[u8]) -> Result<(Header, Layout), DiskError> {
    let header = decode_header(bytes)?;
    let lay = layout(header.n, header.m)?;
    if header.file_len != lay.file_len {
        return Err(DiskError::Corrupt {
            what: "header length field disagrees with geometry",
        });
    }
    if (bytes.len() as u64) < lay.file_len {
        return Err(DiskError::Truncated {
            expected: lay.file_len,
            found: bytes.len() as u64,
        });
    }
    let n = header.n as usize;
    let m = header.m as usize;
    let u32_at = |at: usize, i: usize| -> u32 {
        let b = &bytes[at + 4 * i..at + 4 * i + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    };
    // Offsets: starts at 0, monotone, ends at 2m.
    if u32_at(lay.offsets_at, 0) != 0 || u32_at(lay.offsets_at, n) as usize != 2 * m {
        return Err(DiskError::Corrupt {
            what: "offset endpoints",
        });
    }
    for v in 0..n {
        if u32_at(lay.offsets_at, v) > u32_at(lay.offsets_at, v + 1) {
            return Err(DiskError::Corrupt {
                what: "offsets not monotone",
            });
        }
    }
    // Edges: canonical u < v < n, strictly sorted; fold the fingerprint
    // in the same pass.
    let mut d = Digest::new();
    d.word(header.n).word(header.m);
    let mut prev: Option<(u32, u32)> = None;
    for e in 0..m {
        let (u, v) = (u32_at(lay.edges_at, 2 * e), u32_at(lay.edges_at, 2 * e + 1));
        if u >= v || v as usize >= n {
            return Err(DiskError::Corrupt {
                what: "edge endpoints not canonical",
            });
        }
        if prev.is_some_and(|p| p >= (u, v)) {
            return Err(DiskError::Corrupt {
                what: "edges not strictly sorted",
            });
        }
        prev = Some((u, v));
        d.word((u64::from(u) << 32) | u64::from(v));
    }
    let computed = d.finish();
    if computed != header.fingerprint {
        return Err(DiskError::FingerprintMismatch {
            stamped: header.fingerprint,
            computed,
        });
    }
    // Adjacency: each row sorted by neighbour, every entry consistent
    // with the edge list.
    for v in 0..n {
        let (lo, hi) = (
            u32_at(lay.offsets_at, v) as usize,
            u32_at(lay.offsets_at, v + 1) as usize,
        );
        let mut last: Option<u32> = None;
        for k in lo..hi {
            let (w, e) = (u32_at(lay.csr_at, 2 * k), u32_at(lay.csr_at, 2 * k + 1));
            if e as usize >= m {
                return Err(DiskError::Corrupt {
                    what: "adjacency edge id out of range",
                });
            }
            let (a, b) = (
                u32_at(lay.edges_at, 2 * e as usize),
                u32_at(lay.edges_at, 2 * e as usize + 1),
            );
            let (vv, ww) = (v as u32, w);
            if (vv.min(ww), vv.max(ww)) != (a, b) {
                return Err(DiskError::Corrupt {
                    what: "adjacency entry disagrees with edge list",
                });
            }
            if last.is_some_and(|l| l >= w) {
                return Err(DiskError::Corrupt {
                    what: "adjacency row not sorted",
                });
            }
            last = Some(w);
        }
    }
    Ok((header, lay))
}

fn mapped_graph(backing: Backing) -> Result<Graph, DiskError> {
    if !id_layout_is_transparent() {
        return Err(DiskError::Corrupt {
            what: "id tuple layout unsuitable for zero-copy on this target",
        });
    }
    let (header, lay) = validate(backing.bytes())?;
    Ok(Graph::from_mapped(Arc::new(MappedCsr {
        n: header.n as usize,
        m: header.m as usize,
        fingerprint: header.fingerprint,
        layout: lay,
        backing,
    })))
}

/// Loads an on-disk CSR as a mapped-tier [`Graph`]: zero-copy `mmap` on
/// unix, falling back to a buffered read (still zero-copy over the
/// in-RAM image) where mapping is unavailable or fails.
///
/// The whole file is validated once — header, section geometry, CSR
/// invariants, fingerprint stamp — so corrupted or truncated files are
/// typed errors here and can never panic the engine later.
///
/// # Errors
///
/// Any [`DiskError`]; see the variant docs.
pub fn load_mapped(path: &Path) -> Result<Graph, DiskError> {
    #[cfg(target_endian = "little")]
    {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if len < HEADER_LEN as u64 {
                return Err(DiskError::Truncated {
                    expected: HEADER_LEN as u64,
                    found: len,
                });
            }
            if let Ok(map) = mm::Map::new(&file, len as usize) {
                return mapped_graph(Backing::Mapped(map));
            }
        }
        load_buffered(path)
    }
    // Big-endian hosts cannot view the little-endian sections in place;
    // decode into a resident graph instead (correct, just not
    // out-of-core).
    #[cfg(not(target_endian = "little"))]
    {
        load_resident(path)
    }
}

/// Loads an on-disk CSR through a plain buffered read into an aligned
/// in-RAM image (the portable fallback behind [`load_mapped`], public
/// so tests cover it directly).
///
/// # Errors
///
/// Any [`DiskError`]; see the variant docs.
pub fn load_buffered(path: &Path) -> Result<Graph, DiskError> {
    #[cfg(target_endian = "little")]
    {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| DiskError::TooLarge {
            what: "file exceeds the address space",
        })?;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec owns `len` writable bytes (rounded-up words).
        let buf = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
        file.read_exact(buf)?;
        mapped_graph(Backing::Buffered(words, len))
    }
    #[cfg(not(target_endian = "little"))]
    {
        load_resident(path)
    }
}

/// Loads an on-disk CSR by decoding every section into resident `Vec`s
/// — the endian-independent path, and the promotion route from the
/// mapped tier back to the hot tier.
///
/// # Errors
///
/// Any [`DiskError`]; see the variant docs.
pub fn load_resident(path: &Path) -> Result<Graph, DiskError> {
    let mut file = File::open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let (header, lay) = validate(&bytes)?;
    let (n, m) = (header.n as usize, header.m as usize);
    let u32_at = |at: usize, i: usize| -> u32 {
        let b = &bytes[at + 4 * i..at + 4 * i + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    };
    let offsets: Vec<u32> = (0..=n).map(|i| u32_at(lay.offsets_at, i)).collect();
    let edges: Vec<(NodeId, NodeId)> = (0..m)
        .map(|e| {
            (
                NodeId::from(u32_at(lay.edges_at, 2 * e)),
                NodeId::from(u32_at(lay.edges_at, 2 * e + 1)),
            )
        })
        .collect();
    let csr: Vec<(NodeId, EdgeId)> = (0..2 * m)
        .map(|k| {
            (
                NodeId::from(u32_at(lay.csr_at, 2 * k)),
                EdgeId::from(u32_at(lay.csr_at, 2 * k + 1)),
            )
        })
        .collect();
    Ok(Graph::from_parts(n, edges, csr, offsets))
}

fn sibling_path(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Writes `graph` to `path` in the on-disk CSR format (via a sibling
/// temp file renamed into place, so readers never observe a partial
/// file). Returns the stamped fingerprint.
///
/// # Errors
///
/// [`DiskError::Io`] on filesystem failure, [`DiskError::TooLarge`] if
/// the graph exceeds format limits.
pub fn save(graph: &Graph, path: &Path) -> Result<Fingerprint, DiskError> {
    let (offsets, csr, edges) = graph.raw_parts();
    let n = graph.n() as u64;
    let m = edges.len() as u64;
    let lay = layout(n, m)?;
    let fingerprint = graph.fingerprint();
    let tmp = sibling_path(path, ".tmp");
    {
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(&file);
        w.write_all(&encode_header(n, m, fingerprint, lay.file_len))?;
        for &o in offsets {
            w.write_all(&o.to_le_bytes())?;
        }
        for _ in (HEADER_LEN + offsets.len() * 4)..lay.edges_at {
            w.write_all(&[0u8])?;
        }
        for &(u, v) in edges {
            w.write_all(&u.raw().to_le_bytes())?;
            w.write_all(&v.raw().to_le_bytes())?;
        }
        for &(w_, e) in csr {
            w.write_all(&w_.raw().to_le_bytes())?;
            w.write_all(&e.raw().to_le_bytes())?;
        }
        w.flush()?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(fingerprint)
}

/// A re-iterable edge producer the streaming builder can walk twice
/// (count pass, then place pass). Duplicates and either endpoint order
/// are fine; both passes must produce the identical multiset.
pub trait EdgeSource {
    /// Number of nodes (fixed across both passes).
    fn n(&self) -> usize;

    /// Streams every edge once through `emit`.
    ///
    /// # Errors
    ///
    /// Propagates source errors and any error returned by `emit`.
    fn stream(
        &mut self,
        emit: &mut dyn FnMut(usize, usize) -> Result<(), DiskError>,
    ) -> Result<(), DiskError>;
}

/// An edge-list document streams from its text: each pass re-reads the
/// edge lines (see [`crate::io`] for the format's rules), so the edges
/// never exist in RAM at once and both ingest routes accept the same
/// documents.
impl EdgeSource for crate::io::EdgeList<'_> {
    fn n(&self) -> usize {
        self.n()
    }

    fn stream(
        &mut self,
        emit: &mut dyn FnMut(usize, usize) -> Result<(), DiskError>,
    ) -> Result<(), DiskError> {
        self.for_each_edge(emit)
    }
}

impl EdgeSource for crate::generators::spec::StreamableSpec {
    fn n(&self) -> usize {
        self.n()
    }

    fn stream(
        &mut self,
        emit: &mut dyn FnMut(usize, usize) -> Result<(), DiskError>,
    ) -> Result<(), DiskError> {
        self.for_each_edge(emit)
    }
}

/// Statistics from one [`stream_to_disk`] build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Nodes in the built graph.
    pub n: usize,
    /// Edges streamed from the source (duplicates included).
    pub streamed: u64,
    /// Edges in the built graph after canonicalization and dedup.
    pub m: usize,
    /// Content fingerprint stamped into the file (identical to what
    /// the resident builder would produce for the same edge set).
    pub fingerprint: Fingerprint,
}

/// Batches positioned 8-byte record writes, sorts each batch by target
/// position and coalesces consecutive runs into single `pwrite`s — the
/// counting-sort place pass touches positions in near-bucket order, so
/// most batches collapse to a handful of large writes.
struct PlacedWriter<'a> {
    file: &'a File,
    base: u64,
    staged: Vec<(u64, u64)>,
}

const PLACE_BATCH: usize = 1 << 16;

impl<'a> PlacedWriter<'a> {
    fn new(file: &'a File, base: u64) -> Self {
        PlacedWriter {
            file,
            base,
            staged: Vec::with_capacity(PLACE_BATCH),
        }
    }

    fn place(&mut self, index: u64, word: u64) -> io::Result<()> {
        self.staged.push((index, word));
        if self.staged.len() == PLACE_BATCH {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.staged.sort_unstable_by_key(|&(i, _)| i);
        let mut buf: Vec<u8> = Vec::with_capacity(8 * 1024);
        let mut k = 0;
        while k < self.staged.len() {
            let run_start = self.staged[k].0;
            buf.clear();
            buf.extend_from_slice(&self.staged[k].1.to_le_bytes());
            let mut next = run_start + 1;
            k += 1;
            while k < self.staged.len() && self.staged[k].0 == next {
                buf.extend_from_slice(&self.staged[k].1.to_le_bytes());
                next += 1;
                k += 1;
            }
            write_all_at(self.file, &buf, self.base + run_start * 8)?;
        }
        self.staged.clear();
        Ok(())
    }
}

fn write_all_at(file: &File, buf: &[u8], off: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, buf, off)
    }
    #[cfg(not(unix))]
    {
        let mut f = file;
        f.seek(SeekFrom::Start(off))?;
        f.write_all(buf)
    }
}

/// Builds an on-disk CSR at `path` directly from `source` without ever
/// materializing the edge vector in RAM: a two-pass counting sort.
///
/// Pass 1 streams the source counting edges per smaller endpoint (an
/// `O(n)` table). Pass 2 streams again, placing each canonical pair
/// into its bucket in a scratch file via batched positioned writes.
/// The finish phase reads buckets back in node order — each bucket is
/// at most one node's raw degree, the only per-bucket RAM — sorting and
/// deduplicating locally, which yields the final edge section in
/// canonical order; offsets prefix-sum from the deduplicated degrees
/// and the adjacency section fills through the same batched placer. The
/// fingerprint folds during a final sequential rescan, so the stamp is
/// bit-identical to the resident builder's.
///
/// Peak memory is `O(n)` words plus one bucket, independent of `m`.
///
/// # Errors
///
/// Source errors pass through; invalid edges surface as
/// [`DiskError::Graph`], format overflows as [`DiskError::TooLarge`].
pub fn stream_to_disk(source: &mut dyn EdgeSource, path: &Path) -> Result<StreamStats, DiskError> {
    let n = source.n();
    if n as u64 >= u64::from(u32::MAX) {
        return Err(DiskError::TooLarge {
            what: "node count exceeds u32 ids",
        });
    }
    // Pass 1: count per smaller endpoint.
    let mut counts = vec![0u32; n];
    let mut streamed = 0u64;
    source.stream(&mut |u, v| {
        if u >= n {
            return Err(DiskError::Graph(crate::GraphError::NodeOutOfRange {
                node: u,
                n,
            }));
        }
        if v >= n {
            return Err(DiskError::Graph(crate::GraphError::NodeOutOfRange {
                node: v,
                n,
            }));
        }
        if u == v {
            return Err(DiskError::Graph(crate::GraphError::SelfLoop { node: u }));
        }
        let lo = u.min(v);
        counts[lo] = counts[lo].checked_add(1).ok_or(DiskError::TooLarge {
            what: "bucket exceeds u32 entries",
        })?;
        streamed += 1;
        Ok(())
    })?;
    // Bucket starts in the scratch file (u64: pre-dedup total may pass
    // the u32 budget that only applies post-dedup).
    let mut starts = vec![0u64; n + 1];
    for v in 0..n {
        starts[v + 1] = starts[v] + u64::from(counts[v]);
    }
    debug_assert_eq!(starts[n], streamed);

    // Pass 2: place canonical pairs into their buckets.
    let scratch_path = sibling_path(path, ".scratch");
    let tmp_path = sibling_path(path, ".tmp");
    let result = (|| -> Result<StreamStats, DiskError> {
        let scratch = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&scratch_path)?;
        scratch.set_len(streamed * 8)?;
        {
            let mut placer = PlacedWriter::new(&scratch, 0);
            let mut cursor = vec![0u32; n];
            let mut replayed = 0u64;
            source.stream(&mut |u, v| {
                let (lo, hi) = (u.min(v) as u64, u.max(v) as u64);
                let slot = starts[lo as usize] + u64::from(cursor[lo as usize]);
                cursor[lo as usize] += 1;
                replayed += 1;
                if replayed > streamed {
                    return Err(DiskError::Corrupt {
                        what: "edge source changed between passes",
                    });
                }
                placer.place(slot, (lo << 32) | hi).map_err(DiskError::from)
            })?;
            if replayed != streamed {
                return Err(DiskError::Corrupt {
                    what: "edge source changed between passes",
                });
            }
            placer.flush()?;
        }

        // Finish 1: sweep buckets in node order, sort+dedup each, write
        // the canonical edge section sequentially and collect final
        // degrees.
        let out = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        let mut deg = vec![0u32; n];
        let mut m = 0u64;
        {
            let mut scratch_reader = BufReader::with_capacity(1 << 20, &scratch);
            scratch_reader.seek(SeekFrom::Start(0))?;
            // Edge section start is independent of m, so sequential
            // writing can begin before m is known.
            let edges_at = align8(HEADER_LEN as u64 + (n as u64 + 1) * 4);
            (&out).seek(SeekFrom::Start(edges_at))?;
            let mut edge_writer = BufWriter::with_capacity(1 << 20, &out);
            let mut bucket: Vec<u64> = Vec::new();
            let mut word8 = [0u8; 8];
            for u in 0..n {
                let len = (starts[u + 1] - starts[u]) as usize;
                bucket.clear();
                bucket.reserve(len);
                for _ in 0..len {
                    scratch_reader.read_exact(&mut word8)?;
                    bucket.push(u64::from_le_bytes(word8));
                }
                bucket.sort_unstable();
                bucket.dedup();
                for &word in &bucket {
                    let v = (word & 0xffff_ffff) as usize;
                    edge_writer.write_all(&(u as u32).to_le_bytes())?;
                    edge_writer.write_all(&((word & 0xffff_ffff) as u32).to_le_bytes())?;
                    deg[u] += 1;
                    deg[v] += 1;
                    m += 1;
                }
            }
            edge_writer.flush()?;
        }
        let lay = layout(n as u64, m)?;
        out.set_len(lay.file_len)?;

        // Offsets: prefix-sum of the deduplicated degrees.
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        {
            (&out).seek(SeekFrom::Start(lay.offsets_at as u64))?;
            let mut w = BufWriter::with_capacity(1 << 20, &out);
            for &o in &offsets {
                w.write_all(&o.to_le_bytes())?;
            }
            w.flush()?;
        }

        // Finish 2: rescan the edge section sequentially — the scan
        // order is the canonical edge order, so the adjacency rows come
        // out neighbour-sorted exactly as in the resident builder — and
        // fold the fingerprint in the same pass.
        let mut digest = Digest::new();
        digest.word(n as u64).word(m);
        let mut cursor = offsets[..n].to_vec();
        {
            // Separate handle: the reader's cursor must not share state
            // with the placer's positioned writes.
            let out_read = File::open(&tmp_path)?;
            let mut edge_reader = BufReader::with_capacity(1 << 20, out_read);
            edge_reader.seek(SeekFrom::Start(lay.edges_at as u64))?;
            let mut placer = PlacedWriter::new(&out, lay.csr_at as u64);
            let mut pair = [0u8; 8];
            for e in 0..m {
                edge_reader.read_exact(&mut pair)?;
                let u = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
                let v = u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
                digest.word((u64::from(u) << 32) | u64::from(v));
                let e = e as u32;
                placer.place(
                    u64::from(cursor[u as usize]),
                    u64::from(v) | (u64::from(e) << 32),
                )?;
                cursor[u as usize] += 1;
                placer.place(
                    u64::from(cursor[v as usize]),
                    u64::from(u) | (u64::from(e) << 32),
                )?;
                cursor[v as usize] += 1;
            }
            placer.flush()?;
        }
        let fingerprint = digest.finish();
        write_all_at(
            &out,
            &encode_header(n as u64, m, fingerprint, lay.file_len),
            0,
        )?;
        out.sync_all()?;
        Ok(StreamStats {
            n,
            streamed,
            m: m as usize,
            fingerprint,
        })
    })();
    let _ = std::fs::remove_file(&scratch_path);
    match result {
        Ok(stats) => {
            std::fs::rename(&tmp_path, path)?;
            Ok(stats)
        }
        Err(e) => {
            let _ = std::fs::remove_file(&tmp_path);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::spec;
    use crate::io::EdgeList;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("planartest-disk-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn roundtrip(g: &Graph, path: &Path) {
        let fp = save(g, path).unwrap();
        assert_eq!(fp, g.fingerprint());
        for loaded in [
            load_mapped(path).unwrap(),
            load_buffered(path).unwrap(),
            load_resident(path).unwrap(),
        ] {
            assert_eq!(loaded.fingerprint(), g.fingerprint());
            assert_eq!(&loaded, g);
            assert_eq!(loaded.n(), g.n());
            assert_eq!(loaded.m(), g.m());
            for v in g.nodes() {
                assert_eq!(loaded.neighbors(v), g.neighbors(v));
            }
        }
        assert!(load_mapped(path).unwrap().is_mapped());
        assert!(!load_resident(path).unwrap().is_mapped());
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        for (i, spec_text) in ["grid(7,9)", "k5_chain(4)", "complete(9)", "path(1)"]
            .iter()
            .enumerate()
        {
            let g = spec::parse(spec_text).unwrap().graph;
            roundtrip(&g, &dir.join(format!("g{i}.csr")));
        }
        // Edge-free and tiny graphs exercise the degenerate geometry.
        roundtrip(&Graph::empty(5), &dir.join("empty.csr"));
        roundtrip(&Graph::empty(0), &dir.join("zero.csr"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_files_are_typed_errors() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("g.csr");
        let g = spec::parse("tri_grid(5,6)").unwrap().graph;
        save(&g, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        let reload = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            load_mapped(&path).unwrap_err()
        };

        let mut bad = pristine.clone();
        bad[0] ^= 0xff;
        assert_eq!(reload(&bad), DiskError::BadMagic);

        let mut bad = pristine.clone();
        bad[8..12].reverse();
        assert_eq!(reload(&bad), DiskError::WrongEndian);

        let mut bad = pristine.clone();
        bad[12] = 99;
        assert_eq!(reload(&bad), DiskError::BadVersion { found: 99 });

        assert!(matches!(
            reload(&pristine[..pristine.len() - 4]),
            DiskError::Truncated { .. }
        ));
        assert!(matches!(
            reload(&pristine[..40]),
            DiskError::Truncated { .. }
        ));

        // Flip one neighbour id in the adjacency section.
        let mut bad = pristine.clone();
        let last = bad.len() - 8;
        bad[last] ^= 0x01;
        assert!(matches!(reload(&bad), DiskError::Corrupt { .. }));

        // Flip an edge endpoint: fingerprint catches it.
        let mut bad = pristine.clone();
        bad[HEADER_LEN + (g.n() + 1) * 4 + 12] ^= 0x02;
        assert!(matches!(
            reload(&bad),
            DiskError::Corrupt { .. } | DiskError::FingerprintMismatch { .. }
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_build_matches_materialized() {
        let dir = tmp_dir("stream");
        for spec_text in [
            "path(40)",
            "cycle(17)",
            "star(23)",
            "grid(12,9)",
            "tri_grid(6,11)",
            "complete(13)",
            "complete_bipartite(5,8)",
            "k5_chain(6)",
            "torus(4,7)",
            "hypercube(6)",
        ] {
            let resident = spec::parse(spec_text).unwrap();
            let mut src = spec::streamable(spec_text).unwrap().unwrap();
            assert_eq!(src.m(), resident.graph.m(), "{spec_text}");
            assert_eq!(src.status(), resident.status, "{spec_text}");
            let path = dir.join("s.csr");
            let stats = stream_to_disk(&mut src, &path).unwrap();
            assert_eq!(stats.m, resident.graph.m(), "{spec_text}");
            assert_eq!(
                stats.fingerprint,
                resident.graph.fingerprint(),
                "{spec_text}"
            );
            let mapped = load_mapped(&path).unwrap();
            assert_eq!(mapped, resident.graph, "{spec_text}");
            for v in mapped.nodes() {
                assert_eq!(
                    mapped.neighbors(v),
                    resident.graph.neighbors(v),
                    "{spec_text}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_build_from_edge_list_dedups() {
        let dir = tmp_dir("edgelist");
        let text = "# comment\n4 5\n0 1\n1 0\n2 3\n1 2\n0 1\n";
        let mut src = EdgeList::parse(text).unwrap();
        let path = dir.join("g.csr");
        let stats = stream_to_disk(&mut src, &path).unwrap();
        assert_eq!(stats.streamed, 5);
        assert_eq!(stats.m, 3);
        let expected = crate::io::from_edge_list(text).unwrap();
        assert_eq!(load_mapped(&path).unwrap(), expected);
        assert_eq!(stats.fingerprint, expected.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_source_edges_are_typed() {
        let dir = tmp_dir("badsrc");
        let mut src = EdgeList::parse("3 1\n1 1\n").unwrap();
        let err = stream_to_disk(&mut src, &dir.join("g.csr")).unwrap_err();
        assert_eq!(
            err,
            DiskError::Graph(crate::GraphError::SelfLoop { node: 1 })
        );
        let mut src = EdgeList::parse("3 1\n0 7\n").unwrap();
        let err = stream_to_disk(&mut src, &dir.join("g.csr")).unwrap_err();
        assert!(matches!(err, DiskError::Graph(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
