use atomio_collective::surviving_pieces_strided;
use atomio_dtype::ViewSegment;
use atomio_interval::StridedSet;
use atomio_pfs::PlatformProfile;
use atomio_vtime::VNanos;

/// The P×P boolean overlap matrix **W** of paper Figure 5:
/// `W[i][j] = 1` iff the file views of processes `i` and `j` overlap
/// (`i != j`). Symmetric, zero diagonal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapMatrix {
    n: usize,
    bits: Vec<bool>,
}

impl OverlapMatrix {
    /// Build from every process's run-length-compressed footprint: one exact
    /// [`StridedSet::overlaps`] test per pair, Θ(P²) like W itself and
    /// [`greedy_color`], each test costing trains, not rows.
    pub fn from_strided(footprints: &[StridedSet]) -> Self {
        let n = footprints.len();
        let mut m = OverlapMatrix {
            n,
            bits: vec![false; n * n],
        };
        for i in 0..n {
            for j in i + 1..n {
                if footprints[i].overlaps(&footprints[j]) {
                    m.set(i, j);
                }
            }
        }
        m
    }

    /// Build from an explicit edge list (for tests and synthetic graphs).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut m = OverlapMatrix {
            n,
            bits: vec![false; n * n],
        };
        for &(i, j) in edges {
            assert!(i != j, "no self-overlap");
            m.set(i, j);
        }
        m
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn overlaps(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.n + j]
    }

    fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.n + j] = true;
        self.bits[j * self.n + i] = true;
    }
}

/// The greedy graph-coloring algorithm of paper Figure 5.
///
/// Processes are examined in rank order; each takes the smallest color not
/// used by any lower-ranked overlapping process ("looking for the lowest
/// ranked processes whose file views do not overlap with any process in
/// that color"). Every rank computes the whole vector locally from W, so no
/// extra communication round is needed beyond the view exchange.
///
/// Guarantees: adjacent vertices get different colors, and at most Δ+1
/// colors are used. For the paper's column-wise partitioning — a chain
/// overlap graph — this yields exactly 2 colors, even/odd by rank
/// (Figure 6).
pub fn greedy_color(w: &OverlapMatrix) -> Vec<usize> {
    let n = w.len();
    let mut colors = vec![0usize; n];
    let mut used = Vec::new();
    for i in 0..n {
        used.clear();
        used.resize(i + 1, false);
        for j in 0..i {
            if w.overlaps(i, j) {
                used[colors[j]] = true;
            }
        }
        colors[i] = (0..).find(|&c| !used[c]).expect("some color free");
    }
    colors
}

/// Number of colors (= I/O phases) of a coloring.
pub(crate) fn color_count(colors: &[usize]) -> usize {
    colors.iter().max().map_or(0, |&c| c + 1)
}

/// The bytes covered by at least one and by at least two of `footprints`:
/// one fold in compressed space, O(P) set operations.
fn coverage(footprints: &[StridedSet]) -> (StridedSet, StridedSet) {
    let none = (StridedSet::new(), StridedSet::new());
    footprints.iter().fold(none, |(once, twice), f| {
        let again = once.intersect(f);
        (once.union(f), twice.union(&again))
    })
}

/// What one barrier-delimited phase asks of the platform: the busiest
/// client's injection time and every server's `(requests, bytes)`.
#[derive(Clone)]
struct PhaseLoad {
    busiest_client_ns: VNanos,
    servers: Vec<(u64, u64)>,
}

impl PhaseLoad {
    /// A phase only `batches` write in.
    fn of<'a>(batches: impl Iterator<Item = &'a StridedSet>, profile: &PlatformProfile) -> Self {
        let mut load = PhaseLoad {
            busiest_client_ns: 0,
            servers: vec![(0, 0); profile.sim_servers],
        };
        load.add_class(batches, profile);
        load
    }

    /// The batches one color class writes in this phase, one per rank. A
    /// client sends a request per run, paced through its own NIC. A
    /// server's share is its slice of the bytes on the stripe grid, again
    /// a request per run — and since ranks of one color never overlap, the
    /// class is sliced once, as the disjoint union of its batches, not once
    /// per rank.
    fn add_class<'a>(
        &mut self,
        batches: impl Iterator<Item = &'a StridedSet>,
        profile: &PlatformProfile,
    ) {
        let mut trains = Vec::new();
        for batch in batches {
            let inject = batch.run_count() * profile.client_op_ns
                + profile.client_link.payload_ns(batch.total_len());
            self.busiest_client_ns = self.busiest_client_ns.max(inject);
            trains.extend_from_slice(batch.trains());
        }
        let class = StridedSet::from_disjoint_trains(trains);
        let n = self.servers.len() as u64;
        for (server, (requests, bytes)) in self.servers.iter_mut().enumerate() {
            let slice = class.shard_slice(profile.stripe_unit, n, server as u64);
            *requests += slice.run_count();
            *bytes += slice.total_len();
        }
    }

    /// The phase's estimated length: its busiest client or its busiest
    /// server, whichever takes longer.
    fn ns(&self, profile: &PlatformProfile) -> VNanos {
        let serve = &profile.serve;
        let busiest_server_ns = self
            .servers
            .iter()
            .filter(|&&(requests, _)| requests > 0)
            .map(|&(requests, bytes)| (requests - 1) * serve.per_op_ns + serve.service_ns(bytes))
            .max()
            .unwrap_or(0);
        self.busiest_client_ns.max(busiest_server_ns)
    }
}

/// The phase schedule of one graph-coloring write, as the set of bytes that
/// are **held**: a rank of color `c > 0` may send whatever it writes
/// outside this set in phase 0 and keeps only its held bytes for phase `c`
/// (color-0 ranks send everything in phase 0 either way).
///
/// Only the bytes two or more ranks write need an order, so the candidate
/// besides the paper's schedule — whole requests wait, i.e. every written
/// byte is held — holds just those. Which one is cheaper depends on the
/// platform: where the clients are the bottleneck (few ranks, many
/// servers) the paper's later phases are full passes over the client links
/// carrying mostly conflict-free bytes; where one color class already
/// saturates the servers, moving the free bytes forward buys nothing and
/// the held pieces cost extra requests at `client_op_ns` and `per_op_ns`
/// each. So each phase of either schedule is estimated as `max(busiest
/// client's injection, busiest server's service)` from the platform's own
/// prices, the phases are summed, and the cheaper schedule wins — ties go
/// to the paper's.
///
/// A pure function of the allgathered footprints, their coloring and the
/// profile: every rank computes the same answer, so the choice costs no
/// collective.
pub fn held_bytes(
    footprints: &[StridedSet],
    colors: &[usize],
    profile: &PlatformProfile,
) -> StridedSet {
    let (written, contested) = coverage(footprints);
    if contested.is_empty() {
        return written; // one color, one phase: nothing to choose
    }
    let class = |color: usize| {
        let of_color = footprints
            .iter()
            .zip(colors)
            .filter(move |(_, &c)| c == color);
        of_color.map(|(f, _)| f)
    };
    let whole: Vec<PhaseLoad> = (0..color_count(colors))
        .map(|color| PhaseLoad::of(class(color), profile))
        .collect();
    // Phase 0 of the split schedule starts from the paper's and takes every
    // other class's free bytes; the later phases are left the held ones.
    let mut split = vec![whole[0].clone()];
    for color in 1..whole.len() {
        let free: Vec<StridedSet> = class(color).map(|f| f.subtract(&contested)).collect();
        let held: Vec<StridedSet> = class(color).map(|f| f.intersect(&contested)).collect();
        split[0].add_class(free.iter(), profile);
        split.push(PhaseLoad::of(held.iter(), profile));
    }
    let total = |loads: &[PhaseLoad]| loads.iter().map(|l| l.ns(profile)).sum::<VNanos>();
    if total(&split) < total(&whole) {
        contested
    } else {
        written
    }
}

/// Cut a request by a held set (see [`held_bytes`]) into its **free**
/// pieces, outside the set, and its **held** pieces, inside it. Together
/// they tile the request; logical offsets are preserved, and a segment
/// that lies wholly on one side comes back uncut.
pub fn split_request(
    segments: &[ViewSegment],
    held: &StridedSet,
) -> (Vec<ViewSegment>, Vec<ViewSegment>) {
    let free = surviving_pieces_strided(segments, held);
    let free_bytes = StridedSet::from_sorted_extents(free.iter().map(|s| (s.file_off, s.len)));
    let held = surviving_pieces_strided(segments, &free_bytes);
    (free, held)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_interval::{ByteRange, IntervalSet, Train};

    fn chain(n: usize) -> OverlapMatrix {
        let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
        OverlapMatrix::from_edges(n, &edges)
    }

    #[test]
    fn column_wise_chain_gets_two_colors_even_odd() {
        // Figure 6: the column-wise pattern overlaps only neighbours, and
        // the greedy algorithm produces even/odd phases.
        let w = chain(6);
        let colors = greedy_color(&w);
        assert_eq!(colors, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(color_count(&colors), 2);
    }

    #[test]
    fn figure6_matrix_values() {
        // The 4-process example matrix W of Figure 6.
        let w = chain(4);
        let expect = [
            [false, true, false, false],
            [true, false, true, false],
            [false, true, false, true],
            [false, false, true, false],
        ];
        for (i, row) in expect.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                assert_eq!(w.overlaps(i, j), want, "W[{i}][{j}]");
            }
        }
    }

    #[test]
    fn disjoint_views_one_color() {
        let w = OverlapMatrix::from_edges(5, &[]);
        let colors = greedy_color(&w);
        assert_eq!(color_count(&colors), 1);
    }

    #[test]
    fn complete_graph_needs_p_colors() {
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let w = OverlapMatrix::from_edges(5, &edges);
        let colors = greedy_color(&w);
        assert_eq!(colors, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn coloring_is_proper() {
        let w =
            OverlapMatrix::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (0, 6)]);
        let colors = greedy_color(&w);
        for i in 0..7 {
            for j in 0..7 {
                if w.overlaps(i, j) {
                    assert_ne!(colors[i], colors[j], "adjacent {i},{j} share a color");
                }
            }
        }
        assert!(color_count(&colors) <= max_degree(&w) + 1);
    }

    /// Maximum degree Δ of the overlap graph.
    fn max_degree(w: &OverlapMatrix) -> usize {
        (0..w.len())
            .map(|i| (0..w.len()).filter(|&j| w.overlaps(i, j)).count())
            .max()
            .unwrap_or(0)
    }

    /// W by one dense `IntervalSet::overlaps` test per pair: the reference
    /// `from_strided` must equal.
    fn dense_matrix(footprints: &[StridedSet]) -> OverlapMatrix {
        let dense: Vec<IntervalSet> = footprints.iter().map(StridedSet::to_intervals).collect();
        let mut edges = Vec::new();
        for i in 0..dense.len() {
            for j in i + 1..dense.len() {
                if dense[i].overlaps(&dense[j]) {
                    edges.push((i, j));
                }
            }
        }
        OverlapMatrix::from_edges(dense.len(), &edges)
    }

    #[test]
    fn from_strided_detects_overlap() {
        let run = |start: u64, end: u64| StridedSet::from_sorted_extents([(start, end - start)]);
        let w = OverlapMatrix::from_strided(&[run(0, 100), run(90, 200), run(200, 300)]);
        assert!(w.overlaps(0, 1));
        assert!(w.overlaps(1, 0));
        assert!(!w.overlaps(1, 2), "touching but not overlapping");
        assert!(!w.overlaps(0, 2));
        assert_eq!(max_degree(&w), 1);
    }

    #[test]
    fn from_strided_matches_dense_on_colwise_combs() {
        // 4 ranks of a 16-row × 64-column array with 4 ghost columns:
        // neighbours overlap, non-neighbours don't.
        let strided = colwise(16, 64, 4, 4);
        let ws = OverlapMatrix::from_strided(&strided);
        assert_eq!(ws, dense_matrix(&strided));
        assert!(ws.overlaps(0, 1) && ws.overlaps(1, 2) && ws.overlaps(2, 3));
        assert!(!ws.overlaps(0, 2) && !ws.overlaps(1, 3) && !ws.overlaps(0, 3));
    }

    #[test]
    fn from_strided_handles_runs_and_mixed_strides() {
        let comb_a = StridedSet::from_train(Train::new(3, 4, 16, 8)); // stride 16
        let comb_b = StridedSet::from_train(Train::new(35, 2, 24, 6)); // stride 24
        let run = StridedSet::from_train(Train::new(30, 10, 10, 1)); // plain run
        let empty = StridedSet::new();
        let strided = vec![comb_a, comb_b, run, empty];
        assert_eq!(
            OverlapMatrix::from_strided(&strided),
            dense_matrix(&strided)
        );
    }

    /// Footprints of the paper's column-wise pattern: `m` rows of `n`
    /// bytes over `p` ranks, neighbours sharing `r` columns.
    fn colwise(m: u64, n: u64, p: u64, r: u64) -> Vec<StridedSet> {
        (0..p)
            .map(|k| {
                let start = (k * (n / p)).saturating_sub(r / 2);
                let end = ((k + 1) * (n / p) + r / 2).min(n);
                StridedSet::from_train(Train::new(start, end - start, n, m))
            })
            .collect()
    }

    fn plan(footprints: &[StridedSet], profile: &PlatformProfile) -> StridedSet {
        let colors = greedy_color(&OverlapMatrix::from_strided(footprints));
        held_bytes(footprints, &colors, profile)
    }

    #[test]
    fn client_bound_geometry_holds_only_the_contested_bytes() {
        // Figure 8's 128 MB panel at P = 4: four clients at 3 MB/s against
        // twelve servers — the paper's second phase is a second full pass
        // over the client links for 16 contested bytes a row.
        let fps = colwise(512, 262_144, 4, 16);
        let held = plan(&fps, &PlatformProfile::ibm_sp());
        assert_eq!(held.total_len(), 3 * 512 * 16);
        assert_eq!(
            held,
            fps[1]
                .intersect(&fps[0].union(&fps[2]))
                .union(&fps[2].intersect(&fps[3]))
        );
    }

    #[test]
    fn server_bound_geometries_keep_the_papers_schedule() {
        // At P = 16 on the small array one color class already saturates
        // the busiest server: moving the free bytes forward buys nothing
        // and the held phase adds 2·M requests, so everything stays held.
        for profile in [PlatformProfile::cplant(), PlatformProfile::ibm_sp()] {
            let held = plan(&colwise(512, 8192, 16, 16), &profile);
            assert_eq!(
                held,
                StridedSet::from_range(ByteRange::new(0, 512 * 8192)),
                "{}",
                profile.name
            );
        }
    }

    #[test]
    fn a_tie_goes_to_the_papers_schedule() {
        // One server with no per-request cost, clients that cost nothing:
        // either schedule is the server streaming every written byte once
        // per writer, to the nanosecond.
        let profile = PlatformProfile {
            sim_servers: 1,
            serve: atomio_vtime::ServeCost::new(0, 1.0e9),
            client_link: atomio_vtime::LinkCost::new(0, 1.0e15),
            client_op_ns: 0,
            ..PlatformProfile::fast_test()
        };
        let fps = colwise(8, 256, 4, 8);
        assert_eq!(
            plan(&fps, &profile),
            StridedSet::from_range(ByteRange::new(0, 8 * 256))
        );
        // A per-request price on the clients is enough to break it.
        let dearer = PlatformProfile {
            client_link: atomio_vtime::LinkCost::new(0, 1.0e8),
            ..profile
        };
        assert_eq!(plan(&fps, &dearer).total_len(), 3 * 8 * 8);
    }

    #[test]
    fn a_single_phase_holds_nothing_back() {
        // Disjoint requests: one color, both schedules are the same phase.
        let fps = colwise(8, 256, 4, 0);
        let colors = greedy_color(&OverlapMatrix::from_strided(&fps));
        assert_eq!(color_count(&colors), 1);
        let held = held_bytes(&fps, &colors, &PlatformProfile::fast_test());
        let segments: Vec<ViewSegment> = fps[1]
            .iter_runs()
            .scan(0, |logical, run| {
                let seg = ViewSegment {
                    file_off: run.start,
                    logical_off: *logical,
                    len: run.len(),
                };
                *logical += run.len();
                Some(seg)
            })
            .collect();
        // Nothing of a request is free under the paper's schedule, and
        // what is held comes back uncut.
        let (free, kept) = split_request(&segments, &held);
        assert!(free.is_empty());
        assert_eq!(kept, segments);
    }

    #[test]
    fn split_request_tiles_each_segment_in_file_order() {
        let segments = [
            ViewSegment {
                file_off: 100,
                logical_off: 0,
                len: 50,
            },
            ViewSegment {
                file_off: 300,
                logical_off: 50,
                len: 20,
            },
        ];
        let held = StridedSet::from_sorted_extents([(90, 20), (140, 30), (400, 8)]);
        let (free, kept) = split_request(&segments, &held);
        let seg = |file_off, logical_off, len| ViewSegment {
            file_off,
            logical_off,
            len,
        };
        assert_eq!(free, [seg(110, 10, 30), seg(300, 50, 20)]);
        assert_eq!(kept, [seg(100, 0, 10), seg(140, 40, 10)]);
    }

    #[test]
    fn ghost_cell_star_pattern() {
        // One rank overlapping everyone (e.g. a halo hub) forces 2 colors,
        // others can share.
        let w = OverlapMatrix::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let colors = greedy_color(&w);
        assert_eq!(colors[0], 0);
        assert!(colors[1..].iter().all(|&c| c == 1));
    }
}
