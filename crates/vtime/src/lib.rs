//! Virtual-time kernel for the atomio simulator.
//!
//! Every simulated MPI rank carries a [`Clock`] measured in virtual
//! nanoseconds ([`VNanos`]). Message transfers, collective operations, file
//! server service and lock grants all *advance* these clocks according to
//! explicit cost models ([`LinkCost`], [`ServeCost`]) instead of reading the
//! host's wall clock. This makes the reproduction's bandwidth figures a pure
//! function of the contention structure the paper studies (lock
//! serialization, phased I/O, overlap elimination), independent of host
//! scheduling noise.
//!
//! The model is *work-conserving*: shared resources (a file server, a lock
//! range) keep a monotone `busy-until` horizon ([`Horizon`]); a request that
//! arrives at virtual time `t` starts service at `max(t, horizon)`. When
//! request arrivals are aligned by a barrier — which is exactly how the
//! paper's collective-I/O strategies behave — the resulting makespan is
//! independent of the real-time order in which the racing OS threads reach
//! the resource, so simulated results are reproducible run-to-run.
//!
//! A [`Job`] is the table of one simulated job's ranks: each rank's clock
//! and whether it is running, parked at a wait, or exited. The waits that
//! block one rank on another park through it, so a hang becomes a
//! [`Deadlock`] report instead of a silent stall.

mod clock;
mod cost;
mod horizon;
mod job;
mod net;
mod topo;
mod wire;

pub use clock::{Clock, VNanos};
pub use cost::{bandwidth_mibps, fanout_ns, LinkCost, MemCost, ServeCost, MIB};
pub use horizon::Horizon;
pub use job::{Deadlock, Job, Seat, Wait, Waiters, Wakeup};
pub use net::{LinkClass, NetCost};
pub use topo::NodeTopology;
pub use wire::WireSize;
