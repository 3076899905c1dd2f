//! Connected-component labelling with the `scm` skeleton.
//!
//! The application of Ginhac, Sérot & Dérutin (MVA'98, cited as \[7\]):
//! the image is split into horizontal bands, each band is labelled
//! independently, and the merge step resolves label equivalences across
//! band boundaries with a union-find pass — a textbook Split/Compute/Merge
//! decomposition.
//!
//! The merge only ever looks at the labels on either side of a seam, so
//! a band ships **seam rows, not a label map**: [`label_band`] scans its
//! band with two rolling label rows ([`label_seams`]) and returns the
//! resolved first and last rows plus the component count. A labelled
//! band is O(width) — 2 × 1920 `u32`s (15 KiB) at 1080p — instead of an
//! O(band) map (4 MiB for half a 1080p frame). The seam rows are leased
//! from the labelling worker's frame arena, so in steady state each
//! worker's arena holds a few seam-sized `u32` slots, and its scan
//! scratch (three label rows plus the equivalence table) is reused
//! across frames.

use skipper::{Backend, Executable, FrameSource, Scm, SeqBackend, ThreadBackend};
use skipper_vision::label::{label_components_reference, label_seams, Connectivity, DisjointSets};
use skipper_vision::split::{split_rows, RowBand};
use skipper_vision::Image;

/// Per-band computation result: the band metadata plus the resolved
/// labels of its first and last rows and its label count — everything
/// [`merge_bands`] reads.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledBand {
    /// The band (metadata + original pixels).
    pub band: RowBand,
    /// The band's seam rows, `width × 2`: row 0 holds the local labels
    /// (dense from 1) of the band's first row, row 1 those of its last
    /// row (the same row for a one-row band; all 0 for an empty band).
    pub seams: Image<u32>,
    /// Number of local labels.
    pub count: u32,
}

impl LabelledBand {
    /// Local labels of the band's first row.
    pub fn top(&self) -> &[u32] {
        self.seams.row(0)
    }

    /// Local labels of the band's last row.
    pub fn bottom(&self) -> &[u32] {
        self.seams.row(1)
    }
}

/// Sequential reference: number of 8-connected components.
pub fn count_components_seq(img: &Image<u8>) -> u32 {
    skipper_vision::label::count_components(img, Connectivity::Eight)
}

/// The `scm` split function: `n` bands, no halo (labelling merges across
/// the seam explicitly). Bands are zero-copy views of the frame: fanning
/// a 4K frame out to the farm moves refcounts, never pixels.
pub fn split_bands(img: &Image<u8>, n: usize) -> Vec<RowBand> {
    split_rows(img, n, 0)
}

/// The `scm` compute function: label one band locally with the
/// rolling-row scan, writing only its two resolved seam rows into a
/// buffer leased from the worker's frame arena — on the persistent
/// pool/shard workers the same small buffer is recycled frame after
/// frame, and no band-sized label map is ever written.
pub fn label_band(band: RowBand) -> LabelledBand {
    let mut count = 0;
    let seams = Image::leased_full(band.pixels.width(), 2, |seams| {
        count = label_seams(&band.pixels, Connectivity::Eight, seams);
    });
    LabelledBand { band, seams, count }
}

/// The pre-arena baseline split: every band deep-copies its rows out of
/// the frame — the copy-per-band behaviour this PR removed. Kept for the
/// E19 benchmark and differential tests.
pub fn split_bands_copying(img: &Image<u8>, n: usize) -> Vec<RowBand> {
    split_rows(img, n, 0)
        .into_iter()
        .map(|mut b| {
            b.pixels = b.pixels.deep_clone();
            b
        })
        .collect()
}

/// The pre-arena baseline compute: the per-pixel reference labeller into
/// a freshly allocated full label map, whose seam rows are then copied
/// out (see [`label_band`] for the hot path).
pub fn label_band_copying(band: RowBand) -> LabelledBand {
    let labels = label_components_reference(&band.pixels, Connectivity::Eight);
    let count = labels.as_slice().iter().copied().max().unwrap_or(0);
    let (w, h) = labels.dimensions();
    let seams = if h == 0 {
        Image::new(w, 2)
    } else {
        Image::from_fn(w, 2, |x, y| labels.get(x, if y == 0 { 0 } else { h - 1 }))
    };
    LabelledBand { band, seams, count }
}

/// The `scm` merge function: resolve cross-boundary equivalences and count
/// global components.
pub fn merge_bands(parts: Vec<LabelledBand>) -> u32 {
    // Global id = offset[band] + local_label - 1.
    let mut offsets = Vec::with_capacity(parts.len());
    let mut total = 0usize;
    for p in &parts {
        offsets.push(total);
        total += p.count as usize;
    }
    let mut ds = DisjointSets::new(total);
    // Union across each seam: the last row of band i touches the first
    // row of band i+1 (8-connectivity: straight and diagonal neighbours).
    for (i, pair) in parts.windows(2).enumerate() {
        let (above, below) = (pair[0].bottom(), pair[1].top());
        let w = above.len();
        for (x, &lt) in above.iter().enumerate() {
            if lt == 0 {
                continue;
            }
            let gt = offsets[i] + lt as usize - 1;
            for &lb in &below[x.saturating_sub(1)..(x + 2).min(w)] {
                if lb != 0 {
                    ds.union(gt, offsets[i + 1] + lb as usize - 1);
                }
            }
        }
    }
    (0..total).filter(|&g| ds.find(g) == g).count() as u32
}

/// The `scm` program type built by [`ccl_program`].
pub type CclProgram = Scm<
    fn(&Image<u8>, usize) -> Vec<RowBand>,
    fn(RowBand) -> LabelledBand,
    fn(Vec<LabelledBand>) -> u32,
>;

/// The labelling program: one `scm` value shared by every backend.
pub fn ccl_program(n: usize) -> CclProgram {
    Scm::new(n, split_bands, label_band, merge_bands)
}

/// The copy-per-band baseline program: identical results to
/// [`ccl_program`], but splitting deep-copies every band and labelling
/// allocates fresh with the per-pixel reference algorithm — the whole
/// pipeline exactly as it ran before the arena/view refactor. E19
/// measures [`ccl_program`] against it.
pub fn ccl_program_copying(n: usize) -> CclProgram {
    Scm::new(n, split_bands_copying, label_band_copying, merge_bands)
}

/// Parallel component count via the `scm` skeleton on `n` worker threads.
pub fn count_components_scm(img: &Image<u8>, n: usize) -> u32 {
    ThreadBackend::new().run(&ccl_program(n), img)
}

/// The same count through the declarative semantics (sequential emulation).
pub fn count_components_scm_seq(img: &Image<u8>, n: usize) -> u32 {
    SeqBackend.run(&ccl_program(n), img)
}

/// The count on a caller-chosen backend (e.g. `skipper::HostBackend`
/// parsed from a `--backend` flag, or a shared `skipper::PoolBackend`
/// when labelling every frame of a stream).
pub fn count_components_on<B>(backend: &B, img: &Image<u8>, n: usize) -> u32
where
    B: for<'a> Backend<CclProgram, &'a Image<u8>, Output = u32>,
{
    backend.run(&ccl_program(n), img)
}

/// Labels a whole frame stream through **one prepared executable**
/// (prepare-once/run-many): the labelling program is compiled for the
/// backend once and every frame pays only the run cost — the per-frame
/// regime `Backend::run` would re-derive dispatch structure for.
pub fn count_components_stream_on<'f, B>(backend: &B, frames: &'f [Image<u8>], n: usize) -> Vec<u32>
where
    B: Backend<CclProgram, &'f Image<u8>, Output = u32>,
{
    let prog = ccl_program(n);
    let exec = backend.prepare(&prog);
    let mut src = skipper::stream_of(frames);
    let mut counts = Vec::with_capacity(frames.len());
    while let Some(img) = src.next_frame() {
        counts.push(exec.run(img));
    }
    counts
}

/// Labels every frame a [`FrameSource`] yields through an
/// **already-prepared executable** — the source-consuming generalisation
/// of [`count_components_stream_on`] for live feeds and the serving
/// engine, where frames are owned and produced on demand rather than
/// sliced from a pre-recorded buffer.
pub fn count_components_from_source<E, S>(exec: &E, mut frames: S) -> Vec<u32>
where
    E: for<'a> Executable<&'a Image<u8>, Output = u32>,
    S: FrameSource<Image<u8>>,
{
    let mut counts = Vec::new();
    while let Some(img) = frames.next_frame() {
        counts.push(exec.run(&img));
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_vision::synth::random_blobs;

    #[test]
    fn merge_counts_single_blob_across_seam() {
        // A vertical bar crossing all band boundaries.
        let mut img = Image::<u8>::new(16, 16);
        img.fill_rect(7, 0, 2, 16, 255);
        assert_eq!(count_components_seq(&img), 1);
        for n in [2, 3, 4, 8] {
            assert_eq!(count_components_scm(&img, n), 1, "n={n}");
        }
    }

    #[test]
    fn diagonal_contact_across_seam_merges() {
        // Two pixels touching only diagonally across the seam of 2 bands
        // over a 4-row image (seam between rows 1 and 2).
        let mut img = Image::<u8>::new(4, 4);
        img.set(1, 1, 255);
        img.set(2, 2, 255);
        assert_eq!(count_components_seq(&img), 1);
        assert_eq!(count_components_scm(&img, 2), 1);
    }

    #[test]
    fn parallel_equals_sequential_on_random_blobs() {
        for seed in 0..6 {
            let img = random_blobs(96, 96, 14, seed);
            let expected = count_components_seq(&img);
            for n in [1, 2, 3, 5, 8] {
                assert_eq!(count_components_scm(&img, n), expected, "seed={seed} n={n}");
                assert_eq!(count_components_scm_seq(&img, n), expected);
            }
        }
    }

    #[test]
    fn empty_image_has_zero_components() {
        let img = Image::<u8>::new(32, 32);
        assert_eq!(count_components_scm(&img, 4), 0);
    }

    #[test]
    fn separate_blobs_stay_separate() {
        let mut img = Image::<u8>::new(32, 32);
        img.fill_rect(2, 2, 4, 4, 255);
        img.fill_rect(20, 20, 4, 4, 255);
        img.fill_rect(10, 28, 4, 2, 255);
        assert_eq!(count_components_scm(&img, 4), 3);
    }

    #[test]
    fn source_helper_matches_prepared_slice_helper() {
        use skipper::{PoolBackend, VecSource, Workers};
        let frames: Vec<Image<u8>> = (0..4).map(|s| random_blobs(48, 48, 6, s)).collect();
        let backend = PoolBackend::configured(Workers::exact(2));
        let expected = count_components_stream_on(&backend, &frames, 3);
        let prog = ccl_program(3);
        let exec = <PoolBackend as Backend<CclProgram, &Image<u8>>>::prepare(&backend, &prog);
        let got = count_components_from_source(&exec, VecSource::new(frames));
        assert_eq!(got, expected);
    }

    #[test]
    fn copying_baseline_matches_the_arena_pipeline() {
        use skipper::PoolBackend;
        let backend = PoolBackend::new();
        for seed in 0..4 {
            let img = random_blobs(80, 64, 10, seed);
            for n in [1, 3, 4] {
                let fast = count_components_on(&backend, &img, n);
                let slow: u32 = backend.run(&ccl_program_copying(n), &img);
                assert_eq!(fast, slow, "seed={seed} n={n}");
            }
        }
    }

    #[test]
    fn split_bands_is_zero_copy_and_baseline_is_not() {
        let img = random_blobs(64, 48, 8, 1);
        for b in split_bands(&img, 4) {
            assert!(b.pixels.shares_buffer_with(&img));
        }
        for b in split_bands_copying(&img, 4) {
            assert!(!b.pixels.shares_buffer_with(&img));
        }
    }

    #[test]
    fn label_band_seams_equal_the_reference_map() {
        let frames = [
            random_blobs(96, 64, 14, 3),
            random_blobs(1920, 540, 80, 4),
            random_blobs(61, 7, 4, 5),
        ];
        for img in &frames {
            for n in [1, 2, 3, 7] {
                for band in split_bands(img, n) {
                    let map = label_components_reference(&band.pixels, Connectivity::Eight);
                    let lb = label_band(band.clone());
                    let h = map.height();
                    assert_eq!(lb.top(), map.row(0), "n={n} band {}", band.index);
                    assert_eq!(lb.bottom(), map.row(h - 1), "n={n} band {}", band.index);
                    assert_eq!(lb.count, map.as_slice().iter().copied().max().unwrap());
                    assert_eq!(label_band_copying(band), lb);
                }
            }
        }
    }

    #[test]
    fn ccl_program_on_pool_and_shard_counts_like_the_reference_at_1080p() {
        use skipper::{PoolBackend, ShardBackend, Workers};
        let pool = PoolBackend::configured(Workers::exact(2));
        let shard = ShardBackend::configured(2, Workers::exact(2));
        for seed in 0..3 {
            let img = random_blobs(1920, 1080, 160, seed);
            let labels = label_components_reference(&img, Connectivity::Eight);
            let expected = labels.as_slice().iter().copied().max().unwrap_or(0);
            for n in [2, 3, 8] {
                let prog = ccl_program(n);
                assert_eq!(pool.run(&prog, &img), expected, "pool seed={seed} n={n}");
                assert_eq!(shard.run(&prog, &img), expected, "shard seed={seed} n={n}");
            }
        }
    }

    #[test]
    fn more_bands_than_rows_still_correct() {
        let img = random_blobs(64, 6, 5, 9);
        assert_eq!(count_components_scm(&img, 16), count_components_seq(&img));
    }
}
