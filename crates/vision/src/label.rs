//! Connected-component labelling.
//!
//! The core of the paper's `detect_mark` user function and of the
//! connected-component labelling application of Ginhac et al. (MVA'98)
//! parallelised with the `scm` skeleton. Every fast path shares one
//! first pass: the decision-tree scan of Wu, Otoo & Suzuki ("Optimizing
//! two-pass connected-component labeling algorithms", 2009) over a flat
//! min-root equivalence table, which one forward pass flattens into the
//! final dense labels. [`label_components`] and [`label_components_tiled`]
//! run it into a label map; [`label_seams`] and [`count_components`] run
//! it over two rolling rows and keep only the first and last label rows.
//! [`label_components_reference`] is the executable specification they
//! are all tested against.

use crate::Image;
use std::cell::RefCell;

/// Pixel connectivity used when labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Connectivity {
    /// 4-neighbourhood (N, S, E, W).
    Four,
    /// 8-neighbourhood (includes diagonals).
    #[default]
    Eight,
}

/// A union-find (disjoint-set) forest over `usize` ids with path compression
/// and union by rank.
///
/// # Example
///
/// ```
/// use skipper_vision::label::DisjointSets;
/// let mut ds = DisjointSets::new(4);
/// ds.union(0, 1);
/// ds.union(2, 3);
/// assert_eq!(ds.find(0), ds.find(1));
/// assert_ne!(ds.find(1), ds.find(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DisjointSets {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl DisjointSets {
    /// Creates `n` singleton sets `{0}, {1}, …, {n-1}`.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements (not sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the structure holds no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Adds a fresh singleton and returns its id.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.rank.push(0);
        id
    }

    /// Representative of the set containing `x`, with path compression.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns the new root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => {
                self.parent[ra] = rb;
                rb
            }
            std::cmp::Ordering::Greater => {
                self.parent[rb] = ra;
                ra
            }
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
                ra
            }
        }
    }

    /// `true` when `a` and `b` belong to the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

// ---------------------------------------------------------------------------
// The scan: decision-tree first pass over a min-root equivalence table
// ---------------------------------------------------------------------------
//
// Provisional labels live in a flat `u32` parent table: `table[i]` is the
// parent of provisional id `i`, and id 0 is the background. Unions always
// keep the *smaller* root (min-root union), so every entry satisfies
// `table[i] <= i`, a root is a fixed point, and a tree's root is its
// smallest id. Provisional ids are created in raster order, and the first
// pixel of a component (in raster order) has no labelled neighbour, so it
// always creates the component's smallest id. Hence one forward pass over
// the table (`flatten`) both resolves every id to its root — a non-root's
// parent precedes it and is already resolved — and numbers the roots
// densely from 1 in raster order of each component's first pixel: exactly
// the numbering of `label_components_reference`.

/// Per-thread scan buffers, reused across calls: the equivalence table
/// and the rolling label rows of [`label_seams`].
struct Scratch {
    table: Vec<u32>,
    rows: Vec<u32>,
}

impl Scratch {
    const fn new() -> Self {
        Scratch {
            table: Vec::new(),
            rows: Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// Runs `f` with this thread's scan buffers. No scan calls back into a
/// labeller, so the buffers are never borrowed twice.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Empties `table` down to the background entry.
fn reset(table: &mut Vec<u32>) {
    table.clear();
    table.push(0);
}

/// A fresh provisional id, its own root.
#[inline]
fn new_label(table: &mut Vec<u32>) -> u32 {
    let id = table.len() as u32;
    table.push(id);
    id
}

/// The root — the smallest id — of `i`'s set.
#[inline]
fn find_root(table: &[u32], mut i: u32) -> u32 {
    while table[i as usize] < i {
        i = table[i as usize];
    }
    i
}

/// Points every node on the path from `i` to its root at `root`.
#[inline]
fn set_root(table: &mut [u32], mut i: u32, root: u32) {
    while table[i as usize] < i {
        let next = table[i as usize];
        table[i as usize] = root;
        i = next;
    }
    table[i as usize] = root;
}

/// Min-root union of the sets of `i` and `j`; returns the merged root.
#[inline]
fn union(table: &mut [u32], i: u32, j: u32) -> u32 {
    let mut root = find_root(table, i);
    if i != j {
        root = root.min(find_root(table, j));
        set_root(table, j, root);
    }
    set_root(table, i, root);
    root
}

/// Resolves every provisional id to its final dense label in place (see
/// the invariant above) and returns the number of components.
fn flatten(table: &mut [u32]) -> u32 {
    let mut next = 0u32;
    for i in 1..table.len() {
        let parent = table[i] as usize;
        table[i] = if parent < i {
            table[parent]
        } else {
            next += 1;
            next
        };
    }
    next
}

/// The first pass over one row: writes the provisional label of every
/// pixel of `src` into `cur`, given the provisional labels of the row
/// above (`None` on a strip's first row), recording equivalences in
/// `table`. Background pixels get 0. `src` must not be empty.
///
/// For 8-connectivity this is the decision tree of Wu, Otoo & Suzuki
/// (2009): a labelled N already touches NW, NE and W, so it is copied;
/// otherwise a labelled NE needs at most one union, with NW or else W
/// (which touch each other); otherwise NW, then W, is copied, or a new
/// label is created. For 4-connectivity W and N are unioned only when
/// they differ.
fn scan_row(
    src: &[u8],
    prev: Option<&[u32]>,
    cur: &mut [u32],
    table: &mut Vec<u32>,
    conn: Connectivity,
) {
    let cur = &mut cur[..src.len()];
    let mut west = 0u32;
    let Some(prev) = prev else {
        for (c, &px) in cur.iter_mut().zip(src) {
            west = if px == 0 {
                0
            } else if west != 0 {
                west
            } else {
                new_label(table)
            };
            *c = west;
        }
        return;
    };
    let prev = &prev[..src.len()];
    match conn {
        Connectivity::Four => {
            for ((c, &px), &north) in cur.iter_mut().zip(src).zip(prev) {
                west = if px == 0 {
                    0
                } else if north != 0 {
                    if west != 0 && west != north {
                        union(table, north, west)
                    } else {
                        north
                    }
                } else if west != 0 {
                    west
                } else {
                    new_label(table)
                };
                *c = west;
            }
        }
        Connectivity::Eight => {
            // Slide the N-row window (nw, n, ne) along in registers.
            let (mut nw, mut n) = (0u32, prev[0]);
            let mut step = |px: u8, ne: u32, table: &mut Vec<u32>| {
                west = if px == 0 {
                    0
                } else if n != 0 {
                    n
                } else if ne != 0 {
                    if nw != 0 {
                        union(table, ne, nw)
                    } else if west != 0 {
                        union(table, ne, west)
                    } else {
                        ne
                    }
                } else if nw != 0 {
                    nw
                } else if west != 0 {
                    west
                } else {
                    new_label(table)
                };
                (nw, n) = (n, ne);
                west
            };
            let last = src.len() - 1;
            for ((c, &px), &ne) in cur[..last].iter_mut().zip(&src[..last]).zip(&prev[1..]) {
                *c = step(px, ne, table);
            }
            cur[last] = step(src[last], 0, table);
        }
    }
}

/// Runs [`scan_row`] over rows `y0..` of `img` into `labels`, the
/// matching full-width rows of a label map, with a fresh `table`.
fn scan_strip(
    img: &Image<u8>,
    y0: usize,
    labels: &mut [u32],
    conn: Connectivity,
    table: &mut Vec<u32>,
) {
    let w = img.width();
    reset(table);
    let mut prev: Option<&[u32]> = None;
    for (ry, cur) in labels.chunks_exact_mut(w).enumerate() {
        scan_row(img.row(y0 + ry), prev, cur, table, conn);
        prev = Some(cur);
    }
}

/// Labels the connected components of a binary image (non-zero = foreground).
///
/// Returns a label map with background 0 and components numbered densely
/// from 1 in raster order of their first pixel, written into a buffer
/// leased from the frame arena. The output is byte-identical to
/// [`label_components_reference`].
///
/// # Example
///
/// ```
/// use skipper_vision::{Image, label::{label_components, Connectivity}};
/// let mut img = Image::<u8>::new(5, 1);
/// img.set(0, 0, 255);
/// img.set(4, 0, 255);
/// let l = label_components(&img, Connectivity::Four);
/// assert_eq!(l.get(0, 0), 1);
/// assert_eq!(l.get(4, 0), 2);
/// assert_eq!(l.get(2, 0), 0);
/// ```
pub fn label_components(img: &Image<u8>, conn: Connectivity) -> Image<u32> {
    label_components_tiled(img, conn, 1)
}

/// The original per-pixel two-pass labelling, kept as the executable
/// specification: [`label_components`], [`label_components_tiled`] and
/// [`label_seams`] must agree with it exactly for every image and
/// connectivity, and the E19 benchmark uses it as the pre-arena
/// baseline. Prefer [`label_components`] everywhere else — this walks
/// the image with bounds-checked per-pixel accesses, unions every
/// labelled neighbour pair and allocates its label map fresh.
pub fn label_components_reference(img: &Image<u8>, conn: Connectivity) -> Image<u32> {
    let (w, h) = img.dimensions();
    let mut labels: Vec<u32> = vec![0; w * h];
    if w == 0 || h == 0 {
        return Image::from_raw(w, h, labels);
    }
    let mut ds = DisjointSets::new(1); // id 0 reserved for background

    // First pass: provisional labels + equivalences.
    for y in 0..h {
        for x in 0..w {
            if img.get(x, y) == 0 {
                continue;
            }
            let west = if x > 0 { labels[y * w + x - 1] } else { 0 };
            let north = if y > 0 { labels[(y - 1) * w + x] } else { 0 };
            let (nw, ne) = if conn == Connectivity::Eight && y > 0 {
                (
                    if x > 0 {
                        labels[(y - 1) * w + x - 1]
                    } else {
                        0
                    },
                    if x + 1 < w {
                        labels[(y - 1) * w + x + 1]
                    } else {
                        0
                    },
                )
            } else {
                (0, 0)
            };
            let neighbours = [west, north, nw, ne];
            let mut assigned = 0u32;
            for &n in &neighbours {
                if n != 0 {
                    if assigned == 0 {
                        assigned = n;
                    } else {
                        ds.union(assigned as usize, n as usize);
                    }
                }
            }
            if assigned == 0 {
                assigned = ds.push() as u32;
            }
            labels[y * w + x] = assigned;
        }
    }
    // Second pass: resolve equivalences to dense labels.
    let mut dense: Vec<u32> = vec![0; ds.len()];
    let mut next = 0u32;
    for p in labels.iter_mut() {
        if *p == 0 {
            continue;
        }
        let root = ds.find(*p as usize);
        if dense[root] == 0 {
            next += 1;
            dense[root] = next;
        }
        *p = dense[root];
    }
    Image::from_raw(w, h, labels)
}

/// [`label_components`] with the first pass split into `strips`
/// horizontal bands scanned on **parallel threads**, each with its own
/// equivalence table, then stitched: the strip tables are concatenated
/// (strip `s`'s ids follow strip `s - 1`'s, so creation order stays
/// raster order and the min-root invariant holds globally), the seams
/// are unioned, and one flatten numbers the components. The output is
/// byte-identical to the sequential labelling for every image,
/// connectivity and strip count.
pub fn label_components_tiled(img: &Image<u8>, conn: Connectivity, strips: usize) -> Image<u32> {
    let (w, h) = img.dimensions();
    if w == 0 || h == 0 {
        return Image::new(w, h);
    }
    let strips = strips.clamp(1, h);
    // The label map is leased from the frame arena and filled while the
    // lease is still exclusive, so a farmed pipeline recycles one label
    // buffer per worker across frames. The scan writes every cell
    // (background included), so the lease skips the blanket reset.
    Image::leased_full(w, h, |labels| {
        with_scratch(|s| {
            let table = &mut s.table;
            if strips == 1 {
                scan_strip(img, 0, labels, conn, table);
                flatten(table);
                for p in labels.iter_mut() {
                    *p = table[*p as usize];
                }
                return;
            }
            // Near-equal row partition: starts[k]..starts[k + 1] is strip `k`.
            let (base, extra) = (h / strips, h % strips);
            let starts: Vec<usize> = (0..=strips).map(|k| k * base + k.min(extra)).collect();
            let locals: Vec<Vec<u32>> = std::thread::scope(|scope| {
                let mut rest = &mut labels[..];
                let mut handles = Vec::with_capacity(strips);
                for k in 0..strips {
                    let (band, tail) = rest.split_at_mut((starts[k + 1] - starts[k]) * w);
                    rest = tail;
                    let y0 = starts[k];
                    handles.push(scope.spawn(move || {
                        let mut local = Vec::new();
                        scan_strip(img, y0, band, conn, &mut local);
                        local
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("strip labelling thread"))
                    .collect()
            });

            // Stitch: strip `k`'s provisional id `i` becomes global id
            // `offsets[k] + i`.
            reset(table);
            let mut offsets = Vec::with_capacity(strips);
            for local in &locals {
                let off = (table.len() - 1) as u32;
                offsets.push(off);
                table.extend(local[1..].iter().map(|&p| p + off));
            }
            for k in 1..strips {
                let y = starts[k];
                let (above, below) = labels[(y - 1) * w..(y + 1) * w].split_at(w);
                for (x, &b) in below.iter().enumerate() {
                    if b == 0 {
                        continue;
                    }
                    let span = match conn {
                        Connectivity::Four => x..x + 1,
                        Connectivity::Eight => x.saturating_sub(1)..(x + 2).min(w),
                    };
                    for &a in &above[span] {
                        if a != 0 {
                            union(table, b + offsets[k], a + offsets[k - 1]);
                        }
                    }
                }
            }
            flatten(table);
            for k in 0..strips {
                let resolved = &table[offsets[k] as usize..];
                for p in &mut labels[starts[k] * w..starts[k + 1] * w] {
                    if *p != 0 {
                        *p = resolved[*p as usize];
                    }
                }
            }
        })
    })
}

/// Labels `img` like [`label_components`] but without a label map: the
/// scan keeps only two rolling label rows, then writes the **resolved**
/// labels of the first row into `seams[..width]` and of the last row
/// into `seams[width..]`, and returns the number of components. These
/// are exactly the first and last rows of [`label_components`]'s map and
/// its maximum — all a band merge needs — for O(width) memory instead of
/// O(image). An image with no rows yields zero seams and count 0.
///
/// # Panics
///
/// Panics if `seams.len() != 2 * img.width()`.
///
/// # Example
///
/// ```
/// use skipper_vision::{Image, label::{label_seams, Connectivity}};
/// let mut img = Image::<u8>::new(3, 3);
/// img.set(0, 0, 255);
/// img.set(2, 2, 255);
/// let mut seams = [0u32; 6];
/// assert_eq!(label_seams(&img, Connectivity::Eight, &mut seams), 2);
/// assert_eq!(seams, [1, 0, 0, 0, 0, 2]);
/// ```
pub fn label_seams(img: &Image<u8>, conn: Connectivity, seams: &mut [u32]) -> u32 {
    let w = img.width();
    assert_eq!(seams.len(), 2 * w, "seams hold the first and last rows");
    with_scratch(|s| scan_seams(img, conn, Some(seams), s))
}

/// The rolling-row scan behind [`label_seams`] and [`count_components`]:
/// `s.rows` holds the first row's provisional labels (kept until the
/// flatten resolves them) and two rows that alternate as N and current.
fn scan_seams(
    img: &Image<u8>,
    conn: Connectivity,
    seams: Option<&mut [u32]>,
    s: &mut Scratch,
) -> u32 {
    let (w, h) = img.dimensions();
    if w == 0 || h == 0 {
        if let Some(seams) = seams {
            seams.fill(0);
        }
        return 0;
    }
    let Scratch { table, rows } = s;
    rows.resize(3 * w, 0);
    let (first, rolling) = rows.split_at_mut(w);
    let (mut prev, mut cur) = rolling.split_at_mut(w);
    reset(table);
    scan_row(img.row(0), None, first, table, conn);
    prev.copy_from_slice(first);
    for y in 1..h {
        scan_row(img.row(y), Some(prev), cur, table, conn);
        std::mem::swap(&mut prev, &mut cur);
    }
    let count = flatten(table);
    if let Some(seams) = seams {
        let (top, bottom) = seams.split_at_mut(w);
        for (out, &p) in top.iter_mut().zip(&*first) {
            *out = table[p as usize];
        }
        for (out, &p) in bottom.iter_mut().zip(&*prev) {
            *out = table[p as usize];
        }
    }
    count
}

/// Number of connected components of a binary image: the count of the
/// rolling-row scan, with no label map written.
pub fn count_components(img: &Image<u8>, conn: Connectivity) -> u32 {
    with_scratch(|s| scan_seams(img, conn, None, s))
}

/// Relabels `labels` so that label values are dense in `1..=n`, preserving
/// raster order of first appearance. Returns the number of labels.
pub fn make_dense(labels: &mut Image<u32>) -> u32 {
    let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut next = 0u32;
    for p in labels.as_mut_slice() {
        if *p == 0 {
            continue;
        }
        let entry = remap.entry(*p).or_insert_with(|| {
            next += 1;
            next
        });
        *p = *entry;
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_image_has_no_components() {
        let img = Image::<u8>::new(8, 8);
        assert_eq!(count_components(&img, Connectivity::Eight), 0);
    }

    #[test]
    fn single_blob() {
        let mut img = Image::<u8>::new(8, 8);
        img.fill_rect(2, 2, 3, 3, 255);
        assert_eq!(count_components(&img, Connectivity::Four), 1);
    }

    #[test]
    fn diagonal_blobs_depend_on_connectivity() {
        // Two pixels touching only diagonally.
        let mut img = Image::<u8>::new(4, 4);
        img.set(1, 1, 255);
        img.set(2, 2, 255);
        assert_eq!(count_components(&img, Connectivity::Four), 2);
        assert_eq!(count_components(&img, Connectivity::Eight), 1);
    }

    #[test]
    fn u_shape_merges_via_equivalence() {
        // A 'U' initially gets two provisional labels that must merge.
        let mut img = Image::<u8>::new(5, 4);
        img.fill_rect(0, 0, 1, 4, 255);
        img.fill_rect(4, 0, 1, 4, 255);
        img.fill_rect(0, 3, 5, 1, 255);
        assert_eq!(count_components(&img, Connectivity::Four), 1);
    }

    #[test]
    fn labels_are_dense_from_one() {
        let mut img = Image::<u8>::new(9, 1);
        for x in [0usize, 3, 6] {
            img.set(x, 0, 255);
        }
        let l = label_components(&img, Connectivity::Four);
        assert_eq!(l.get(0, 0), 1);
        assert_eq!(l.get(3, 0), 2);
        assert_eq!(l.get(6, 0), 3);
    }

    #[test]
    fn checkerboard_four_connectivity() {
        let img = Image::from_fn(6, 6, |x, y| if (x + y) % 2 == 0 { 255 } else { 0 });
        assert_eq!(count_components(&img, Connectivity::Four), 18);
        assert_eq!(count_components(&img, Connectivity::Eight), 1);
    }

    #[test]
    fn disjoint_sets_basics() {
        let mut ds = DisjointSets::new(3);
        assert_eq!(ds.len(), 3);
        assert!(!ds.same(0, 2));
        ds.union(0, 1);
        ds.union(1, 2);
        assert!(ds.same(0, 2));
        let id = ds.push();
        assert_eq!(id, 3);
        assert!(!ds.same(0, 3));
    }

    /// Deterministic pseudo-random binary image (splitmix-style mixing),
    /// density ~1/2 so components frequently straddle strip seams.
    fn noise_image(w: usize, h: usize, seed: u64) -> Image<u8> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        Image::from_fn(w, h, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            u8::from((s >> 62) & 1 == 1) * 255
        })
    }

    #[test]
    fn tiled_labelling_equals_sequential_exactly() {
        use crate::synth::random_blobs;
        let checkerboard =
            |w, h| Image::from_fn(w, h, |x, y| if (x + y) % 2 == 0 { 255 } else { 0 });
        let cases: Vec<(&str, Image<u8>)> = vec![
            ("noise 1x1", noise_image(1, 1, 1)),
            ("noise 7x3", noise_image(7, 3, 2)),
            ("noise 31x17", noise_image(31, 17, 3)),
            ("noise 64x64", noise_image(64, 64, 4)),
            ("noise 5x40", noise_image(5, 40, 5)),
            ("noise 1xN", noise_image(1, 57, 6)),
            ("noise Nx1", noise_image(57, 1, 7)),
            ("blobs 1920x540", random_blobs(1920, 540, 80, 8)),
            ("blobs 1920x37", random_blobs(1920, 37, 12, 11)),
            ("blobs 333x211", random_blobs(333, 211, 25, 9)),
            ("blobs 97x3", random_blobs(97, 3, 6, 10)),
            ("all foreground", Image::from_fn(37, 23, |_, _| 255)),
            ("checkerboard", checkerboard(29, 19)),
            ("checkerboard 1xN", checkerboard(1, 9)),
            ("checkerboard Nx1", checkerboard(9, 1)),
        ];
        for (name, img) in &cases {
            let (w, h) = img.dimensions();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let golden = label_components_reference(img, conn);
                assert_eq!(label_components(img, conn), golden, "{name} {conn:?}");
                // One strip per row spawns h threads; tall images stop at 7
                // strips and the 1920x37 band covers per-row strips at width.
                let sweep: &[usize] = if h > 64 {
                    &[1, 2, 3, 4, 7]
                } else {
                    &[1, 2, 3, 4, 7, h, h + 5]
                };
                for &strips in sweep {
                    let tiled = label_components_tiled(img, conn, strips);
                    assert_eq!(tiled, golden, "{name} {conn:?} strips {strips}");
                }
                // The map-free scan agrees with the map's seams and maximum.
                let count = golden.as_slice().iter().copied().max().unwrap_or(0);
                assert_eq!(count_components(img, conn), count, "{name} {conn:?}");
                let mut seams = vec![u32::MAX; 2 * w];
                assert_eq!(label_seams(img, conn, &mut seams), count, "{name} {conn:?}");
                assert_eq!(&seams[..w], golden.row(0), "{name} {conn:?} top");
                assert_eq!(&seams[w..], golden.row(h - 1), "{name} {conn:?} bottom");
            }
        }
    }

    #[test]
    fn seams_of_an_image_without_rows_are_zero() {
        let mut seams = [7u32; 8];
        assert_eq!(
            label_seams(&Image::new(4, 0), Connectivity::Eight, &mut seams),
            0
        );
        assert_eq!(seams, [0; 8]);
    }

    #[test]
    fn tiled_labelling_merges_structures_across_seams() {
        // A 'U' whose arms live in different strips: the seam stitch must
        // recover the single component, numbered exactly like sequential.
        let mut img = Image::<u8>::new(5, 8);
        img.fill_rect(0, 0, 1, 8, 255);
        img.fill_rect(4, 0, 1, 8, 255);
        img.fill_rect(0, 7, 5, 1, 255);
        for strips in 1..=8 {
            let tiled = label_components_tiled(&img, Connectivity::Four, strips);
            assert_eq!(
                tiled,
                label_components(&img, Connectivity::Four),
                "{strips} strips"
            );
            assert_eq!(tiled.as_slice().iter().copied().max(), Some(1));
        }
    }

    #[test]
    fn make_dense_renumbers() {
        let mut l = Image::from_raw(4, 1, vec![0u32, 7, 7, 42]);
        let n = make_dense(&mut l);
        assert_eq!(n, 2);
        assert_eq!(l.as_slice(), &[0, 1, 1, 2]);
    }
}
