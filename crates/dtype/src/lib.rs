//! MPI derived-datatype engine and file views.
//!
//! MPI 2.0 lets a process describe a *non-contiguous* region of a shared file
//! with a derived datatype and install it as the process's **file view**
//! (`MPI_File_set_view`). Subsequent I/O calls then read/write the visible
//! bytes as one logically contiguous stream. This is precisely the facility
//! that makes MPI atomicity harder than POSIX atomicity (paper §2.2): a
//! single MPI write may cover many file segments, each of which would be a
//! separate `write()` at the file-system level.
//!
//! [`Datatype`] implements the MPI type constructors used by the paper and by
//! ROMIO-style implementations: contiguous, vector/hvector, hindexed,
//! subarray (the constructor in the paper's Figure 4) and resized.
//! [`Datatype::flatten`] lowers any type to its canonical `(displacement,
//! length)` segment list; [`FileView`] maps logical stream offsets to file
//! offsets and produces the footprints the atomicity strategies exchange
//! and analyze.
//!
//! For negotiation-time work (view exchange, overlap analysis)
//! [`FileView::strided_footprint`] emits run-length-compressed
//! [`StridedSet`](atomio_interval::StridedSet)s — O(1) per periodic train
//! instead of O(rows) — so the cost of describing an access scales with its
//! structure, not its row count (paper §3.4). There is one lowering,
//! [`Datatype::flatten`], and one walk over the view: a request's pieces,
//! one per tile segment touched (a contiguous view's request is one
//! piece), stream in file order into [`FileView::segments`],
//! [`FileView::window_segments`] and into
//! [`StridedSet::from_sorted_extents`](atomio_interval::StridedSet::from_sorted_extents),
//! whose canonical form makes the footprint a function of the bytes alone.
//! `proptest_dtype` checks every mapping against a byte-by-byte brute-force
//! map and the strided footprint's train counts.

mod flatten;
mod kinds;
mod subarray;
mod view;

pub use flatten::Segment;
pub use kinds::{Datatype, DatatypeError};
pub use subarray::ArrayOrder;
pub use view::{FileView, ViewError, ViewSegment};
