//! The uncached path: synchronous, vectored, batched and list requests
//! straight to the servers.

use atomio_interval::ByteRange;
use atomio_trace::Category;

use super::{access_args, resume_past_failures, Injected, PosixFile};
use crate::error::FsError;
use crate::server::ServerOp;

impl PosixFile {
    /// The direct arm of [`PosixFile::write`], also returning what landed.
    pub(super) fn pwritev_landed<T: AsRef<[u8]>>(
        &self,
        segments: impl Iterator<Item = (u64, T)>,
    ) -> (Injected, Result<(), FsError>) {
        let op = ServerOp::Write;
        let (inj, res) = self.round_trips(op, segments, |arrival, range, data| {
            self.drain_journal_overlap(range);
            let done = self.server_rpc(arrival, range, op)?;
            self.apply_write(range.start, data.as_ref());
            Ok(done)
        });
        if inj.landed > 0 {
            self.trace_access("direct write", &inj);
            self.stats.add(&self.stats.writes, inj.landed as u64);
            self.stats.add(&self.stats.bytes_written, inj.bytes);
            self.stats
                .add(&self.stats.server_write_requests, inj.server_reqs);
        }
        (inj, res)
    }

    /// A direct [`PosixFile::read`] run to the end: the read resumes
    /// past a failing segment, as [`PosixFile::submit_writes`] does under a
    /// fault plan, and `failed` hears each failing segment's index and error.
    pub fn preadv_direct_past_failures(
        &self,
        segments: &mut [(u64, &mut [u8])],
        failed: impl FnMut(usize, FsError),
    ) {
        let n = segments.len();
        resume_past_failures(
            n,
            |i| self.preadv_landed(segments[i..].iter_mut().map(|(o, b)| (*o, &mut **b)), true),
            failed,
        );
    }

    /// The one closed-loop read, shared by direct reads and cache fills,
    /// each segment fetched through the journal gate and
    /// [`PosixFile::server_rpc`]. A `direct` read is counted and traced as
    /// an access; a cache fill, by the cached read it serves.
    pub(super) fn preadv_landed<B: AsRef<[u8]> + AsMut<[u8]>>(
        &self,
        segments: impl Iterator<Item = (u64, B)>,
        direct: bool,
    ) -> (Injected, Result<(), FsError>) {
        let op = ServerOp::Read;
        let (inj, res) = self.round_trips(op, segments, |arrival, range, mut buf| {
            self.drain_journal_overlap(range);
            let done = self.server_rpc(arrival, range, op)?;
            self.file.storage.read_atomic(range.start, buf.as_mut());
            Ok(done)
        });
        self.stats
            .add(&self.stats.server_read_requests, inj.server_reqs);
        if direct && inj.landed > 0 {
            self.trace_access("direct read", &inj);
            self.stats.add(&self.stats.reads, inj.landed as u64);
            self.stats.add(&self.stats.bytes_read, inj.bytes);
        }
        (inj, res)
    }

    /// What every collective open-loop writer submits through.
    ///
    /// On a healthy file system this is a pipelined batched write — a
    /// `writev`: every entry's data is applied to storage now, straight
    /// from the caller's slices, while its *timing* is deposited with the
    /// servers as virtually-stamped requests. The client paces injections
    /// through its NIC without waiting for per-request acks — the
    /// asynchronous-I/O counterpart of a direct [`PosixFile::write`].
    ///
    /// For timing, entries that follow each other in the file are **one
    /// extent**, however many slices hold its bytes, priced by the one
    /// request rule and streamed by stripe row (DESIGN.md "One injection
    /// formula"), so a batch finishes no later than its closed-loop twin.
    ///
    /// The requests are deposited under `epoch`. Redeem the returned ticket
    /// with [`PosixFile::complete_writes`], settling through an epoch at or
    /// above this one, once every concurrent writer has deposited its
    /// batches up to that epoch — a barrier proves it, or any collective the
    /// writers enter after submitting. Callers that fence every batch with a
    /// barrier use epoch 0 throughout. The deferred settlement is what makes
    /// concurrent write timing deterministic (see
    /// [`ServerSet`](crate::ServerSet)).
    ///
    /// Under a fault plan nothing may stay in flight across a crash/replay
    /// cycle — faults fire against individual server RPCs, not deferred
    /// tickets — so the writes go through a retrying direct
    /// [`PosixFile::write`] instead, with no ticket. Every entry is still
    /// attempted — one whose server is down fails alone, those behind it
    /// land — and the first error comes back.
    ///
    /// `racing` is for *deliberately racing* writers (non-atomic mode): the
    /// batch yields the scheduler between entries so concurrently
    /// submitting ranks interleave — and the undefined outcomes the paper's
    /// Figure 2 demonstrates stay observable — even on a single-CPU host.
    /// Writers whose batches are disjoint by construction skip the yields.
    pub fn submit_writes(
        &self,
        writes: &[(u64, &[u8])],
        epoch: u64,
        racing: bool,
    ) -> Result<Option<u64>, FsError> {
        if self.fs.faults.active() {
            let mut first = None;
            let failed = |_, e| first = first.take().or(Some(e));
            let write = |i: usize| self.pwritev_landed(writes[i..].iter().copied());
            resume_past_failures(writes.len(), write, failed);
            return first.map_or(Ok(None), Err);
        }
        Ok(Some(self.pwrite_batch(writes, epoch, racing)))
    }

    /// The healthy-file-system body of [`PosixFile::submit_writes`]:
    /// apply, deposit, and return the ticket.
    fn pwrite_batch(&self, writes: &[(u64, &[u8])], epoch: u64, racing: bool) -> u64 {
        let link = &self.fs.profile.client_link;
        let servers = &self.fs.servers;
        let row = servers.stripe_unit() * servers.server_count() as u64;
        let t0 = self.clock.now();
        // Apply every entry; for timing, coalesce file-adjacent entries.
        let mut extents: Vec<ByteRange> = Vec::with_capacity(writes.len());
        for &(off, data) in writes.iter().filter(|(_, d)| !d.is_empty()) {
            let len = data.len() as u64;
            match extents.last_mut() {
                Some(e) if e.end == off => e.end += len,
                _ => extents.push(ByteRange::at(off, len)),
            }
            self.apply_write(off, data);
            if racing {
                std::thread::yield_now();
            }
        }
        // Each extent is injected whole and leaves by stripe row: a row
        // request goes once its last byte is on the wire.
        let mut reqs = Vec::with_capacity(extents.len());
        let (mut total, mut server_reqs) = (0u64, 0u64);
        for (i, e) in extents.iter().enumerate() {
            total += e.len();
            server_reqs += servers.requests_for(*e);
            let start = self.inject_extent(t0, i == 0, e.len());
            let mut cur = e.start;
            while cur < e.end {
                let range = ByteRange::new(cur, e.end.min((cur / row + 1) * row));
                let sent = start + link.payload_ns(range.end - e.start);
                reqs.push((sent + link.latency_ns, range, e.start));
                cur = range.end;
            }
        }
        self.stats.add(&self.stats.writes, extents.len() as u64);
        self.stats.add(&self.stats.bytes_written, total);
        self.stats
            .add(&self.stats.server_write_requests, server_reqs);
        if self.tracer.is_enabled() {
            let args = access_args(total, writes.iter().map(|(o, d)| (*o, d.len() as u64)));
            self.tracer.instant(Category::Io, "batch write", t0, &args);
        }
        self.fs.servers.submit(self.client, epoch, reqs)
    }

    /// Settle the deposited batches of epochs `<= through` (which must
    /// cover `ticket`'s) and advance this rank's clock to its batch's
    /// completion (plus the ack latency).
    pub fn complete_writes(&self, ticket: u64, through: u64) {
        self.fs.servers.settle_through(through);
        let done = self.fs.servers.take_completion(ticket);
        let link = &self.fs.profile.client_link;
        if done > 0 {
            self.clock.advance_to(done + link.latency_ns);
        }
    }

    /// Atomic list I/O: apply several segments as *one* atomic operation —
    /// the `lio_listio` extension discussed in paper §3.2. Segments are
    /// injected back-to-back (pipelined) and applied under one storage gate,
    /// so no other write can interleave anywhere between them. A failed
    /// segment fails the whole call and none of them is applied.
    pub fn try_listio_direct_atomic(&self, segments: &[(u64, &[u8])]) -> Result<(), FsError> {
        let op = ServerOp::Write;
        let (inj, res) = self.round_trips(op, segments.iter().copied(), |arrival, range, _| {
            self.drain_journal_overlap(range);
            self.server_rpc(arrival, range, op)
        });
        res?;
        self.trace_access("listio write", &inj);
        self.file.storage.write_listio_atomic(segments);
        if self.fs.profile.cache.enabled {
            // The atomic write bypassed the cache: drop this client's own
            // (now stale) copies of exactly the written segments. Dirty
            // bytes there were logically superseded by this write, so they
            // are discarded, not flushed.
            let mut cache = self.cache.lock();
            for (off, data) in segments {
                cache.discard_range(ByteRange::at(*off, data.len() as u64));
            }
        }
        self.stats.add(&self.stats.writes, segments.len() as u64);
        self.stats.add(&self.stats.bytes_written, inj.bytes);
        self.stats
            .add(&self.stats.server_write_requests, inj.server_reqs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::super::*;
    use crate::fault::RestartPolicy;
    use crate::stats::StatsSnapshot;

    #[test]
    fn direct_write_read_roundtrip_and_time() {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "a");
        f.write(IoPath::Direct, [(0, &[7u8; 2048])]).unwrap();
        assert!(f.clock().now() > 0, "direct I/O must cost virtual time");
        let mut buf = [0u8; 2048];
        f.read(IoPath::Direct, [(0, &mut buf)]).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        let s = f.stats().snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 2048);
        assert_eq!(s.bytes_read, 2048);
    }

    // Batch timing on `fast_test`: NIC 1 byte/ns + 500 ns to issue each
    // extent after the first, link latency 1 us, servers 1 us per request +
    // 1 byte/ns, four servers with 4 KiB stripes — a stripe row is 16 KiB.
    const ROW: usize = 4 * 4096;

    /// Submit `writes` as one batch on a fresh file system, retire it, and
    /// return the completion time and the client's counters.
    fn batch_completion(writes: &[(u64, &[u8])]) -> (VNanos, StatsSnapshot) {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "batch");
        let ticket = f.pwrite_batch(writes, 0, false);
        f.complete_writes(ticket, 0);
        let image = fs.snapshot("batch").unwrap().to_vec();
        for (off, data) in writes {
            assert_eq!(&image[*off as usize..][..data.len()], *data);
        }
        (f.clock().now(), f.stats().snapshot())
    }

    /// The same writes through the closed-loop path, on a fresh file system.
    fn closed_loop_completion(writes: &[(u64, &[u8])]) -> (VNanos, StatsSnapshot) {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "closed");
        f.write(IoPath::Direct, writes.iter().copied()).unwrap();
        (f.clock().now(), f.stats().snapshot())
    }

    #[test]
    fn batch_extent_streams_to_the_servers_by_stripe_row() {
        // One extent of eight stripe rows leaves as eight row requests.
        // Row i is injected by (i+1)·16384 and lands 1 us later. Each server
        // takes 1000 + 4096 ns for its unit of the first row — the extent's
        // one `per_op` there — and 4096 for each later one, less than one
        // row's injection, so no row queues behind the one before it.
        let data = vec![3u8; 8 * ROW];
        let (done, stats) = batch_completion(&[(0, &data)]);
        let nic = 8 * ROW as u64;
        assert_eq!(done, nic + 1_000 + 4_096 + 1_000);
        // One request per server: the extent's price, not the rows'.
        assert_eq!((stats.writes, stats.server_write_requests), (1, 4));
        // Stored whole in the NIC first — the closed-loop write of the same
        // extent — the servers would start only after the last byte: NIC
        // time + the whole extent's service.
        let closed = closed_loop_completion(&[(0, &data)]);
        assert_eq!(closed.0, nic + 1_000 + (1_000 + 8 * 4_096) + 1_000);
        assert!(done < closed.0);
    }

    #[test]
    fn adjacent_batch_entries_time_as_one_extent() {
        // An extent crossing a stripe-row boundary, in one slice and in
        // three: same requests, same completion.
        let data: Vec<u8> = (0..6000u32).map(|i| i as u8).collect();
        let off = ROW as u64 - 2_500;
        let whole = batch_completion(&[(off, &data)]);
        let pieces = batch_completion(&[
            (off, &data[..1000]),
            (off + 1000, &data[1000..4000]),
            (off + 4000, &data[4000..]),
        ]);
        assert_eq!(whole.0, pieces.0);
        assert_eq!(pieces.1.writes, 1, "three slices, one extent");
        assert_eq!(
            whole.1.server_write_requests,
            pieces.1.server_write_requests
        );
        // Two rows: [off, ROW) on server 3 and [ROW, off + 6000) on server
        // 0. The second is injected by 6000 — the batch's first extent pays
        // no issue cost — lands 1 us later and is served in 1000 + 3500.
        assert_eq!(whole.1.server_write_requests, 2);
        assert_eq!(whole.0, 6_000 + 1_000 + 4_500 + 1_000);

        // Entries with a gap between them stay separate extents.
        let apart = batch_completion(&[(0, &data[..1000]), (1001, &data[1000..2000])]);
        assert_eq!(apart.1.writes, 2);
    }

    #[test]
    fn batch_extent_inside_one_row_is_a_single_request() {
        // A batch's first extent costs `payload_ns` on the NIC, one latency
        // to the servers, the slowest per-server piece, one latency back —
        // what one closed-loop write costs. [4196, 10196) puts 3996 bytes on
        // server 1 and 2004 on server 2.
        let data = vec![9u8; 6000];
        let (done, stats) = batch_completion(&[(4196, &data)]);
        assert_eq!(done, 6_000 + 1_000 + (1_000 + 3_996) + 1_000);
        assert_eq!((stats.writes, stats.server_write_requests), (1, 2));
        assert_eq!(done, closed_loop_completion(&[(4196, &data)]).0);

        // Separate extents queue on the NIC one after the other, the second
        // paying `client_op_ns` to issue.
        let (done, stats) = batch_completion(&[(0, &data[..100]), (8192, &data[..200])]);
        assert_eq!(done, (100 + 700) + 1_000 + (1_000 + 200) + 1_000);
        assert_eq!((stats.writes, stats.server_write_requests), (2, 2));
    }

    proptest::proptest! {
        /// One rule for a write extent: a random single extent — inside one
        /// stripe row, ending on a row boundary, or spanning many rows —
        /// counts the same server requests on the batch path and the
        /// closed-loop path, and the batch, which only streams the same
        /// work to the servers earlier, finishes no later.
        #[test]
        fn a_batch_extent_is_priced_as_its_closed_loop_write(
            shape in 0u8..3,
            x in 0u64..4 * ROW as u64,
            y in 0u64..1 << 20,
        ) {
            let row = ROW as u64;
            let len = match shape {
                0 => 1 + y % (row - x % row),
                1 => (x / row + 1 + y % 4) * row - x,
                _ => row * (2 + y % 8) + y % row,
            };
            let data = vec![5u8; len as usize];
            let fs = test_fs();
            let f = fs.open(0, Clock::new(), "one");
            let ticket = f.submit_writes(&[(x, &data)], 0, false).unwrap().unwrap();
            f.complete_writes(ticket, 0);
            let batch = (f.clock().now(), f.stats().snapshot());
            let closed = closed_loop_completion(&[(x, &data)]);
            proptest::prop_assert_eq!(
                batch.1.server_write_requests,
                closed.1.server_write_requests
            );
            proptest::prop_assert!(batch.0 <= closed.0, "{} > {}", batch.0, closed.0);
        }
    }

    #[test]
    fn listio_is_atomic_and_cheaper_than_sequential() {
        let fs = test_fs();
        let rows: Vec<(u64, Vec<u8>)> =
            (0..64u64).map(|r| (r * 4096, vec![r as u8; 512])).collect();

        let f1 = fs.open(0, Clock::new(), "listio");
        let segs: Vec<(u64, &[u8])> = rows.iter().map(|(o, d)| (*o, d.as_slice())).collect();
        f1.try_listio_direct_atomic(&segs).unwrap();
        let t_listio = f1.clock().now();

        let fs2 = test_fs();
        let f2 = fs2.open(0, Clock::new(), "seq");
        for (o, d) in &rows {
            f2.write(IoPath::Direct, [(*o, d)]).unwrap();
        }
        let t_seq = f2.clock().now();
        assert!(
            t_listio < t_seq,
            "pipelined listio ({t_listio}) should beat sequential pwrites ({t_seq})"
        );
        assert_eq!(
            fs.snapshot("listio").unwrap().len(),
            fs2.snapshot("seq").unwrap().len()
        );

        // §3.2's non-contiguous paths on Cplant's ENFS, 256 rows × 2 KiB at
        // a 32 KiB stride: write-behind + sync, listio and a pipelined
        // batch each take at most half the per-segment synchronous time.
        let rows: Vec<(u64, Vec<u8>)> = (0..256u64)
            .map(|r| (r * 32 * 1024, vec![0x5A; 2048]))
            .collect();
        let segs = as_segments(&rows);
        let on_cplant = |write: &dyn Fn(&PosixFile)| {
            let fs = FileSystem::new(PlatformProfile::cplant());
            let f = fs.open(0, Clock::new(), "x");
            write(&f);
            f.clock().now()
        };
        let per_segment = on_cplant(&|f| {
            for (o, d) in &rows {
                f.write(IoPath::Direct, [(*o, d)]).unwrap();
            }
        });
        let write_behind = on_cplant(&|f| {
            for (o, d) in &rows {
                f.write(IoPath::Cached, [(*o, d)]).unwrap();
            }
            f.try_sync().unwrap();
        });
        let listio = on_cplant(&|f| f.try_listio_direct_atomic(&segs).unwrap());
        let batch = on_cplant(&|f| {
            let ticket = f.submit_writes(&segs, 0, false).unwrap();
            f.complete_writes(ticket.expect("no fault plan: deferred"), 0);
        });
        for (path, t) in [
            ("write-behind + sync", write_behind),
            ("listio", listio),
            ("batch", batch),
        ] {
            assert!(
                2 * t <= per_segment,
                "{path} ({t}) should halve per-segment sync ({per_segment})"
            );
        }
    }

    // fast_test costs, spelled out for the closed forms below: 1 ns per
    // payload byte, 1 µs link latency, 500 ns per extra request, and a
    // server piece costs 1 µs + 1 ns per byte; 4 servers × 4 KiB stripes.
    const SEG: u64 = 512;
    const LAT: u64 = 1_000;
    const OP: u64 = 500;
    const SERVICE: u64 = 1_000 + SEG;

    /// `n` 512-byte segments `stride` bytes apart, segment `i` filled
    /// with `i + 1`.
    fn strided_rows(n: u64, stride: u64) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|i| (i * stride, vec![i as u8 + 1; SEG as usize]))
            .collect()
    }

    fn as_segments(rows: &[(u64, Vec<u8>)]) -> Vec<(u64, &[u8])> {
        rows.iter().map(|(o, d)| (*o, d.as_slice())).collect()
    }

    fn assert_rows_landed(image: &[u8], rows: &[(u64, Vec<u8>)]) {
        for (off, data) in rows {
            assert_eq!(&image[*off as usize..][..data.len()], data.as_slice());
        }
    }

    /// The two directions of a closed-loop vector.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Dir {
        Write,
        Read,
    }
    const BOTH: [Dir; 2] = [Dir::Write, Dir::Read];

    /// `rows` as one closed-loop vector in `dir` through a fresh handle on
    /// `fs`'s file "v": a write stores them; a read fetches them back from
    /// a file seeded with them beforehand, off the clock and the servers.
    /// Returns the handle, the call's result, and what each row's bytes
    /// hold afterwards: the file's for a write, the buffer's for a read.
    fn vector(
        fs: &FileSystem,
        dir: Dir,
        rows: &[(u64, Vec<u8>)],
    ) -> (PosixFile, Result<(), FsError>, Vec<Vec<u8>>) {
        let f = fs.open(0, Clock::new(), "v");
        if dir == Dir::Write {
            let res = f.write(IoPath::Direct, rows.iter().map(|(o, d)| (*o, d)));
            let image = fs.snapshot("v").unwrap().to_vec();
            let at = |i: u64| image.get(i as usize).copied().unwrap_or(0);
            let held = rows
                .iter()
                .map(|(off, d)| (*off..*off + d.len() as u64).map(at).collect())
                .collect();
            return (f, res, held);
        }
        for (off, data) in rows {
            f.file.storage.write_atomic(*off, data);
        }
        let mut bufs: Vec<Vec<u8>> = rows.iter().map(|(_, d)| vec![0; d.len()]).collect();
        let res = f.read(IoPath::Direct, rows.iter().map(|r| r.0).zip(&mut bufs));
        (f, res, bufs)
    }

    /// The calls, bytes and server requests `dir` moved.
    fn moved(dir: Dir, s: &StatsSnapshot) -> (u64, u64, u64) {
        match dir {
            Dir::Write => (s.writes, s.bytes_written, s.server_write_requests),
            Dir::Read => (s.reads, s.bytes_read, s.server_read_requests),
        }
    }

    #[test]
    fn one_segment_vector_costs_exactly_one_synchronous_write() {
        // A write: payload, request latency, service, ack latency. A read:
        // request latency, service, reply latency, payload. Same sum.
        let row = [(4096, vec![9u8; SEG as usize])];
        for dir in BOTH {
            let (g, res, _) = vector(&test_fs(), dir, &row);
            res.unwrap();
            let fs = test_fs();
            let f = fs.open(0, Clock::new(), "v");
            let mut buf = [0u8; SEG as usize];
            match dir {
                Dir::Write => f.write(IoPath::Direct, [(4096, &row[0].1)]),
                Dir::Read => f.read(IoPath::Direct, [(4096, &mut buf)]),
            }
            .unwrap();
            assert_eq!(f.clock().now(), LAT + SERVICE + LAT + SEG, "{dir:?}");
            assert_eq!(g.clock().now(), f.clock().now(), "{dir:?}");
            assert_eq!(g.stats().snapshot(), f.stats().snapshot(), "{dir:?}");
            assert_eq!(moved(dir, &f.stats().snapshot()), (1, SEG, 1), "{dir:?}");
        }
    }

    #[test]
    fn vector_over_distinct_servers_is_bound_by_the_nic() {
        // One segment per server: each is served the moment it arrives. A
        // write's payloads queue on the NIC, so the last injected one
        // finishes last. A read's requests carry none: they leave OP apart,
        // and the replies, SEG > OP apart, queue on the link instead.
        let n = 4;
        let rows = strided_rows(n, 4096);
        for dir in BOTH {
            let (f, res, held) = vector(&test_fs(), dir, &rows);
            res.unwrap();
            let end = match dir {
                Dir::Write => n * SEG + (n - 1) * OP + LAT + SERVICE + LAT,
                Dir::Read => LAT + SERVICE + LAT + n * SEG,
            };
            assert_eq!(f.clock().now(), end, "{dir:?}");
            assert_eq!(
                moved(dir, &f.stats().snapshot()),
                (n, n * SEG, n),
                "{dir:?}"
            );
            assert!(held.iter().zip(&rows).all(|(h, (_, d))| h == d), "{dir:?}");
        }
    }

    #[test]
    fn vector_on_one_server_is_bound_by_that_servers_horizon() {
        // Every segment homes on server 0 and arrives faster (at most
        // SEG + OP apart) than it is served, so they queue: the end time is
        // the first arrival plus n services plus the last reply, whatever
        // the client link could carry.
        let n = 4;
        let rows = strided_rows(n, 4 * 4096);
        for dir in BOTH {
            let (f, res, _) = vector(&test_fs(), dir, &rows);
            res.unwrap();
            let (end, link_bound) = match dir {
                Dir::Write => (
                    SEG + LAT + n * SERVICE + LAT,
                    n * SEG + (n - 1) * OP + LAT + SERVICE + LAT,
                ),
                Dir::Read => (LAT + n * SERVICE + LAT + SEG, LAT + SERVICE + LAT + n * SEG),
            };
            assert_eq!(f.clock().now(), end, "{dir:?}");
            assert!(end > link_bound, "{dir:?}");
        }
    }

    #[test]
    fn vector_retries_through_a_crash_and_completes() {
        let rows = strided_rows(4, 4 * 4096);
        let fs = crash_server0_at(3, RestartPolicy::Rejections(2));
        let f = fs.open(0, Clock::new(), "retry");
        f.write(IoPath::Direct, as_segments(&rows)).unwrap();
        let s = f.stats().snapshot();
        assert_eq!((s.writes, s.bytes_written), (4, 4 * SEG));
        assert_eq!((s.retries, s.faults_injected), (2, 1));
        assert_eq!(s.journal_replays, 1, "the second rejection owns recovery");
        assert!(!fs.server_down(0));
        assert_rows_landed(&fs.snapshot("retry").unwrap().to_vec(), &rows);
    }

    #[test]
    fn submitted_batch_is_deferred_when_healthy_and_synchronous_under_a_plan() {
        let rows = strided_rows(4, 4 * 4096);
        // Healthy: a ticket, redeemed after the submitters' fence.
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "batch");
        let ticket = f.submit_writes(&as_segments(&rows), 0, false).unwrap();
        f.complete_writes(ticket.expect("deferred batch"), 0);
        assert_rows_landed(&fs.snapshot("batch").unwrap().to_vec(), &rows);
        // Armed: no ticket, and a server that is down takes no byte. Every
        // entry is still attempted: the first error comes back, and the
        // entries on servers that are up land, wherever they sit in the
        // batch. Entry `i` of `strided_rows(4, 4096 + 512)` is on server `i`.
        let fs = crash_server0_at(1, RestartPolicy::Manual);
        let f = fs.open(0, Clock::new(), "batch");
        let err = f.submit_writes(&as_segments(&rows), 0, false).unwrap_err();
        assert!(matches!(err, FsError::RetriesExhausted { server: 0, .. }));
        assert_eq!(f.stats().snapshot().bytes_written, 0);
        assert_eq!(fs.servers().pending_requests(), 0);
        let mixed = strided_rows(4, 4096 + 512);
        let err = f.submit_writes(&as_segments(&mixed), 0, false).unwrap_err();
        assert!(matches!(err, FsError::RetriesExhausted { server: 0, .. }));
        let s = f.stats().snapshot();
        assert_eq!((s.writes, s.bytes_written), (3, 3 * SEG));
        let image = fs.snapshot("batch").unwrap().to_vec();
        assert!(image[..SEG as usize].iter().all(|&b| b == 0));
        assert_rows_landed(&image, &mixed[1..]);
        assert_eq!(fs.servers().pending_requests(), 0);
    }

    #[test]
    fn vector_stops_at_the_failing_segment_with_the_earlier_ones_applied() {
        let k = 3;
        let rows = strided_rows(4, 4 * 4096);
        for dir in BOTH {
            let fs = crash_server0_at(k, RestartPolicy::Manual);
            let (f, res, held) = vector(&fs, dir, &rows);
            assert_eq!(
                res.unwrap_err(),
                FsError::RetriesExhausted {
                    server: 0,
                    attempts: MAX_RETRIES + 1
                }
            );
            // Exactly the first k − 1 segments landed: moved, counted, and
            // their time charged; the failing one and those after it are
            // not.
            let k1 = k - 1;
            let s = f.stats().snapshot();
            assert_eq!(moved(dir, &s), (k1, k1 * SEG, k1), "{dir:?}");
            assert_eq!(f.clock().now(), LAT + k1 * SERVICE + LAT + SEG, "{dir:?}");
            let (landed, rest) = held.split_at(k1 as usize);
            assert!(
                landed.iter().zip(&rows).all(|(h, (_, d))| h == d),
                "{dir:?}"
            );
            assert!(rest.iter().flatten().all(|&b| b == 0), "{dir:?}");
        }
        // Nothing past segment k − 1 reached the file.
        let fs = crash_server0_at(k, RestartPolicy::Manual);
        vector(&fs, Dir::Write, &rows).1.unwrap_err();
        let (last_off, _) = &rows[k as usize - 2];
        assert_eq!(fs.snapshot("v").unwrap().len(), last_off + SEG);
    }

    #[test]
    fn listio_and_flush_share_the_vector_formula() {
        let n = 4;
        let rows = strided_rows(n, 4096);
        let nic_bound = n * SEG + (n - 1) * OP + LAT + SERVICE + LAT;
        let f = test_fs().open(0, Clock::new(), "lio");
        f.try_listio_direct_atomic(&as_segments(&rows)).unwrap();
        assert_eq!(f.clock().now(), nic_bound);

        // Two dirty runs on two servers, flushed by one sync.
        let g = test_fs().open(0, Clock::new(), "flush");
        g.write(IoPath::Cached, [(0, &rows[0].1)]).unwrap();
        g.write(IoPath::Cached, [(4096, &rows[1].1)]).unwrap();
        let t0 = g.clock().now();
        g.try_sync().unwrap();
        assert_eq!(g.clock().now() - t0, 2 * SEG + OP + LAT + SERVICE + LAT);
        let s = g.stats().snapshot();
        assert_eq!((s.flushes, s.flushed_bytes), (1, 2 * SEG));
        assert_eq!(s.server_write_requests, 2);
    }

    #[test]
    fn server_request_accounting_merges_stripes() {
        // fast_test: 4 servers, 4 KiB stripes. A 32 KiB access touches all
        // 4 servers twice, merged to 4 requests; a 1 KiB access touches 1.
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "acct");
        f.write(IoPath::Direct, [(0, &vec![1u8; 32 * 1024])])
            .unwrap();
        f.write(IoPath::Direct, [(0, &[1u8; 1024])]).unwrap();
        let mut buf = vec![0u8; 8 * 1024];
        f.read(IoPath::Direct, [(0, &mut buf)]).unwrap();
        let s = f.stats().snapshot();
        assert_eq!(s.server_write_requests, 4 + 1);
        assert_eq!(s.server_read_requests, 2);
    }
}
