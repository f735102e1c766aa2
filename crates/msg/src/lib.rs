//! Threads-as-ranks message-passing runtime.
//!
//! The paper's strategies need a small MPI subset: ranks and communicator
//! size, a barrier, an allgather of file views for the §3.3 handshake, and
//! the two-phase redistribution (bcast, gatherv, alltoallv, and splits into
//! node and leader communicators). This crate provides exactly that subset,
//! all of it collective, with OS threads standing in for MPI processes.
//!
//! **Substitution note (see DESIGN.md):** a real MPI job on Cplant/Origin/SP
//! is replaced by [`run`], which spawns one thread per rank and hands each a
//! [`Comm`]. Every operation charges *virtual* time through the rank's
//! [`Clock`](atomio_vtime::Clock) using a latency/bandwidth [`NetCost`]
//! model: log₂(P) latency trees — so simulated communication cost scales
//! the way the paper's negotiation overhead analysis (§3.4) assumes — plus
//! the payload of the busiest endpoint of a switched fabric, per link
//! class, while the actual data movement is an in-process memory exchange.
//!
//! ```
//! use atomio_msg::{run, NetCost};
//!
//! let sums = run(4, NetCost::fast_test(), |comm| {
//!     // Each rank contributes its rank id; everyone sums what it gathered.
//!     comm.allgather(comm.rank() as u64).iter().sum::<u64>()
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

mod collective;
mod comm;
mod runtime;

pub use atomio_vtime::NetCost;
pub use comm::Comm;
pub use runtime::run;
