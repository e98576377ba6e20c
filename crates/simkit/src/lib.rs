//! Discrete-event simulation kit used by the whole DuraSSD reproduction.
//!
//! All performance in this repository is measured in *virtual time*: devices,
//! buses and locks are modelled as [`resource::Timeline`]s, simulated clients
//! are advanced in global virtual-time order by [`driver::ClosedLoop`], and
//! latency/throughput statistics are collected with [`stats`].
//!
//! Keeping time virtual makes every experiment deterministic (seedable RNG,
//! no wall-clock noise) and fast: a run that took the paper's authors hours
//! of wall-clock time on a 32-core Xeon completes in seconds here, while the
//! *relative* behaviour — who waits for whom, what saturates first — is
//! preserved.

pub mod alloc;
pub mod clock;
pub mod crc;
pub mod dist;
pub mod driver;
pub mod pool;
pub mod recovered;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod timed;

pub use clock::{Nanos, MICROS, MILLIS, SECS};
pub use crc::crc32;
pub use driver::{ClosedLoop, DriverReport};
pub use pool::{BufPool, PageBuf};
pub use recovered::{Recovered, ReplayStats};
pub use resource::{MultiServer, Timeline};
pub use rng::{Rng, SimRng};
pub use stats::{Counter, LatencyStats, Summary};
pub use timed::Timed;

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// Fixed-key SipHash, the hasher of [`DetHashMap`] and [`DetHashSet`].
pub type DetState = BuildHasherDefault<DefaultHasher>;

/// A `HashMap` whose hashing does not change from run to run. How a hash
/// table grows after removals depends on where its keys land, so with the
/// standard per-process random keys the allocation count of a simulation
/// varies between identical runs. The simulator's maps are keyed by page
/// numbers and generated keys, never by adversarial input, so they give up
/// nothing by hashing with fixed keys.
pub type DetHashMap<K, V> = HashMap<K, V, DetState>;

/// A `HashSet` whose hashing does not change from run to run (see
/// [`DetHashMap`]).
pub type DetHashSet<K> = HashSet<K, DetState>;
