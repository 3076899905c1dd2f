//! Image-processing substrate for the SKiPPER reproduction.
//!
//! This crate plays the role of the "application-specific sequential C
//! functions" layer of the original SKiPPER environment (Sérot et al.,
//! PaCT-99), together with the synthetic world that replaces the Transvision
//! machine's real-time camera input.
//!
//! It provides:
//!
//! - [`Image`]: a dense row-major raster container;
//! - geometric primitives ([`geometry`]): points, rectangles, a pinhole
//!   camera model;
//! - classic low-level operators ([`ops`]): thresholding, 3×3 convolution,
//!   Sobel gradients;
//! - connected-component labelling ([`label`]) and region properties
//!   ([`region`]): areas, centroids, bounding boxes — the building blocks of
//!   the paper's mark-detection function;
//! - line extraction ([`mod@line`]) for the road-following application;
//! - window/ROI handling ([`window`]) and domain splitters ([`split`]) used
//!   by the `scm` skeleton — bands and tiles are zero-copy views over the
//!   shared frame buffer;
//! - pooled pixel buffers ([`arena`]): per-worker [`FrameArena`]s that
//!   recycle stage-output buffers across the frames of a prepared
//!   executable, keeping the steady-state pixel path allocation-free;
//! - synthetic scene generation ([`synth`]): 3D vehicles carrying three
//!   bright marks, projected through a pinhole camera onto a noisy road
//!   image, exactly the statistical structure the paper's vehicle-tracking
//!   case study processes.
//!
//! # Example
//!
//! ```
//! use skipper_vision::{Image, label::label_components, region::region_properties};
//!
//! let mut img = Image::<u8>::new(64, 64);
//! img.fill_rect(10, 10, 5, 5, 255);
//! img.fill_rect(40, 40, 8, 3, 255);
//! let bin = skipper_vision::ops::threshold(&img, 128);
//! let labels = label_components(&bin, skipper_vision::label::Connectivity::Eight);
//! let regions = region_properties(&labels);
//! assert_eq!(regions.len(), 2);
//! ```

pub mod arena;
pub mod geometry;
pub mod image;
pub mod label;
pub mod line;
pub mod ops;
pub mod region;
pub mod split;
pub mod synth;
pub mod window;

pub use arena::{ArenaPixel, FrameArena};
pub use image::{pixel_alloc_count, thread_pixel_alloc_count, Image};
pub use window::Window;
