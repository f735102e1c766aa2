//! The uncached path: synchronous, vectored, batched and list requests
//! straight to the servers.

use atomio_interval::ByteRange;
use atomio_trace::Category;

use super::{write_args, PosixFile};
use crate::error::FsError;
use crate::server::ServerOp;

impl PosixFile {
    /// Synchronous uncached write: request → servers → ack, charged in
    /// virtual time; bytes really applied to storage (POSIX-atomically when
    /// the platform says so). A down server is retried with vtime backoff,
    /// and the typed error comes back once the retry budget is spent or
    /// this handle is dead.
    pub fn try_pwrite_direct(&self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.try_pwritev_direct(&[(offset, data)])
    }

    /// Closed-loop vectored uncached write — what a lock holder issues for
    /// a noncontiguous request: the segments are pipelined through the NIC
    /// and the servers (`inject_writes`) and the call returns
    /// once the slowest is acknowledged, so the client link and the
    /// servers are busy at the same time instead of alternately. Each
    /// segment is its own POSIX write (applied as it lands, atomically
    /// when the platform says so); nothing is atomic *across* segments —
    /// that is [`PosixFile::try_listio_direct_atomic`]. On a fault the
    /// segments before the failing one are applied and counted, none
    /// after.
    pub fn try_pwritev_direct(&self, segments: &[(u64, &[u8])]) -> Result<(), FsError> {
        self.check_alive()?;
        let (inj, res) = self.inject_writes(segments.iter().copied(), |arrival, range, data| {
            self.drain_journal_overlap(range);
            let done = self.server_rpc(arrival, range, ServerOp::Write)?;
            self.apply_write(range.start, data);
            Ok(done)
        });
        if inj.landed > 0 {
            self.trace_write("direct write", &inj, &segments[..inj.landed]);
            self.stats.add(&self.stats.writes, inj.landed as u64);
            self.stats.add(&self.stats.bytes_written, inj.bytes);
            self.stats
                .add(&self.stats.server_write_requests, inj.server_reqs);
        }
        res
    }

    /// Synchronous uncached read, with the fault model of
    /// [`PosixFile::try_pwrite_direct`].
    pub fn try_pread_direct(&self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.check_alive()?;
        let len = buf.len() as u64;
        let range = ByteRange::at(offset, len);
        self.drain_journal_overlap(range);
        let link = &self.fs.profile.client_link;
        let t0 = self.clock.now();
        let done = self.server_rpc(t0 + link.latency_ns, range, ServerOp::Read)?;
        self.clock
            .advance_to(done + link.latency_ns + link.payload_ns(len));
        self.tracer.span(
            Category::Io,
            "direct read",
            t0,
            self.clock.now(),
            &[("off", offset), ("bytes", len)],
        );
        self.file.storage.read_atomic(offset, buf);
        self.stats.add(&self.stats.reads, 1);
        self.stats.add(&self.stats.bytes_read, len);
        self.stats.add(
            &self.stats.server_read_requests,
            self.fs.servers.requests_for(range),
        );
        Ok(())
    }

    /// What every collective open-loop writer submits through.
    ///
    /// On a healthy file system this is a pipelined batched write — a
    /// `writev`: every entry's data is applied to storage now, straight
    /// from the caller's slices, while its *timing* is deposited with the
    /// servers as virtually-stamped requests. The client paces injections
    /// through its NIC without waiting for per-request acks — the
    /// asynchronous-I/O counterpart of [`PosixFile::try_pwritev_direct`].
    ///
    /// For timing, entries that follow each other in the file (each starts
    /// where the one before it ended) are **one extent**, however many
    /// slices hold its bytes, and every extent leaves as one wire request
    /// per *stripe row* it touches: it is cut at the absolute multiples of
    /// `stripe_unit × server_count`. Each request pays `client_op_ns +
    /// payload_ns(len)` on the NIC and reaches the servers one link latency
    /// after *its own* injection ends, so the servers work on the first rows
    /// of a large extent while the rest is still being injected. An extent
    /// inside one stripe row is a single request.
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
    /// cycle and no byte may land on a server that is down — faults fire
    /// against individual server RPCs, not deferred tickets — so the
    /// writes go through the synchronous, retrying
    /// [`PosixFile::try_pwritev_direct`] instead: there is no ticket, and a
    /// dead server is a typed error.
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
        if self.faults_active() {
            self.try_pwritev_direct(writes)?;
            return Ok(None);
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
        // One wire request per stripe row an extent touches.
        let mut reqs = Vec::with_capacity(extents.len());
        let (mut total, mut server_reqs) = (0u64, 0u64);
        for e in &extents {
            total += e.len();
            let mut cur = e.start;
            while cur < e.end {
                let range = ByteRange::new(cur, e.end.min((cur / row + 1) * row));
                let occupancy = self.fs.profile.client_op_ns + link.payload_ns(range.len());
                let (_, inj_end) = self.nic.serve(t0, occupancy);
                reqs.push((inj_end + link.latency_ns, range));
                server_reqs += servers.requests_for(range);
                cur = range.end;
            }
        }
        self.stats.add(&self.stats.writes, extents.len() as u64);
        self.stats.add(&self.stats.bytes_written, total);
        self.stats
            .add(&self.stats.server_write_requests, server_reqs);
        if self.tracer.is_enabled() {
            let args = write_args(total, writes);
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
        self.check_alive()?;
        let (inj, res) = self.inject_writes(segments.iter().copied(), |arrival, range, _| {
            self.drain_journal_overlap(range);
            self.server_rpc(arrival, range, ServerOp::Write)
        });
        res?;
        self.trace_write("listio write", &inj, segments);
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
        f.try_pwrite_direct(0, &[7u8; 2048]).unwrap();
        assert!(f.clock().now() > 0, "direct I/O must cost virtual time");
        let mut buf = [0u8; 2048];
        f.try_pread_direct(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        let s = f.stats().snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 2048);
        assert_eq!(s.bytes_read, 2048);
    }

    // Batch timing on `fast_test`: NIC 1 byte/ns + 500 ns per request, link
    // latency 1 us, servers 1 us per request + 1 byte/ns, four servers with
    // 4 KiB stripes — a stripe row is 16 KiB.
    const ROW: usize = 4 * 4096;

    /// Submit `writes` as one batch on a fresh file system, retire it, and
    /// return the completion time and the client's counters.
    fn batch_completion(writes: &[(u64, &[u8])]) -> (VNanos, StatsSnapshot) {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "batch");
        let ticket = f.pwrite_batch(writes, 0, false);
        f.complete_writes(ticket, 0);
        let image = fs.snapshot("batch").unwrap();
        for (off, data) in writes {
            assert_eq!(&image[*off as usize..][..data.len()], *data);
        }
        (f.clock().now(), f.stats().snapshot())
    }

    #[test]
    fn batch_extent_streams_to_the_servers_by_stripe_row() {
        // One extent of eight stripe rows leaves as eight requests. Request
        // i is injected by (i+1)·(500 + 16384) and lands 1 us later, where
        // every server takes 1000 + 4096 ns for its stripe — less than one
        // injection, so no request queues behind the one before it.
        let data = vec![3u8; 8 * ROW];
        let (done, stats) = batch_completion(&[(0, &data)]);
        let nic = 8 * (500 + ROW as u64);
        let row_service = 1_000 + 4_096;
        assert_eq!(done, nic + 1_000 + row_service + 1_000);
        assert_eq!((stats.writes, stats.server_write_requests), (1, 8 * 4));
        // Stored whole in the NIC first, the servers would start only after
        // the last byte: NIC time + the whole extent's service.
        assert!(done < nic + 1_000 + 8 * 4_096);
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
        // Two requests: [off, ROW) on server 3 and [ROW, off + 6000) on
        // server 0. The second is injected by 2·500 + 6000, lands 1 us
        // later and is served in 1000 + 3500.
        assert_eq!(whole.1.server_write_requests, 2);
        assert_eq!(whole.0, 7_000 + 1_000 + 4_500 + 1_000);

        // Entries with a gap between them stay separate extents.
        let apart = batch_completion(&[(0, &data[..1000]), (1001, &data[1000..2000])]);
        assert_eq!(apart.1.writes, 2);
    }

    #[test]
    fn batch_extent_inside_one_row_is_a_single_request() {
        // What a batch entry has always cost: `client_op_ns + payload_ns`
        // on the NIC, one latency to the servers, the slowest per-server
        // piece, one latency back. [4196, 10196) puts 3996 bytes on server 1
        // and 2004 on server 2.
        let data = vec![9u8; 6000];
        let (done, stats) = batch_completion(&[(4196, &data)]);
        assert_eq!(done, (500 + 6_000) + 1_000 + (1_000 + 3_996) + 1_000);
        assert_eq!((stats.writes, stats.server_write_requests), (1, 2));

        // Separate extents queue on the NIC one after the other.
        let (done, stats) = batch_completion(&[(0, &data[..100]), (8192, &data[..200])]);
        assert_eq!(done, (600 + 700) + 1_000 + (1_000 + 200) + 1_000);
        assert_eq!((stats.writes, stats.server_write_requests), (2, 2));
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
            f2.try_pwrite_direct(*o, d).unwrap();
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
                f.try_pwrite_direct(*o, d).unwrap();
            }
        });
        let write_behind = on_cplant(&|f| {
            for (o, d) in &rows {
                f.try_pwrite(*o, d).unwrap();
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

    #[test]
    fn one_segment_vector_costs_exactly_one_synchronous_write() {
        let data = [9u8; SEG as usize];
        let f = test_fs().open(0, Clock::new(), "one");
        f.try_pwrite_direct(4096, &data).unwrap();
        let g = test_fs().open(0, Clock::new(), "one");
        g.try_pwritev_direct(&[(4096, &data)]).unwrap();
        // payload, request latency, service, ack latency — in turn.
        assert_eq!(f.clock().now(), SEG + LAT + SERVICE + LAT);
        assert_eq!(g.clock().now(), f.clock().now());
        assert_eq!(g.stats().snapshot(), f.stats().snapshot());
        assert_eq!(f.stats().snapshot().server_write_requests, 1);
    }

    #[test]
    fn vector_over_distinct_servers_is_bound_by_the_nic() {
        // One segment per server: each is served the moment it arrives, so
        // the last injected one finishes last.
        let n = 4;
        let rows = strided_rows(n, 4096);
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "spread");
        f.try_pwritev_direct(&as_segments(&rows)).unwrap();
        assert_eq!(
            f.clock().now(),
            n * SEG + (n - 1) * OP + LAT + SERVICE + LAT
        );
        let s = f.stats().snapshot();
        assert_eq!((s.writes, s.bytes_written), (n, n * SEG));
        assert_eq!(s.server_write_requests, n);
        assert_rows_landed(&fs.snapshot("spread").unwrap(), &rows);
    }

    #[test]
    fn vector_on_one_server_is_bound_by_that_servers_horizon() {
        // Every segment homes on server 0 and arrives faster (SEG + OP
        // apart) than it is served, so they queue: the end time is the
        // first arrival plus n services, whatever the NIC could inject.
        let n = 4;
        let rows = strided_rows(n, 4 * 4096);
        let f = test_fs().open(0, Clock::new(), "queue");
        f.try_pwritev_direct(&as_segments(&rows)).unwrap();
        assert_eq!(f.clock().now(), SEG + LAT + n * SERVICE + LAT);
        assert!(f.clock().now() > n * SEG + (n - 1) * OP + LAT + SERVICE + LAT);
    }

    #[test]
    fn vector_retries_through_a_crash_and_completes() {
        let rows = strided_rows(4, 4 * 4096);
        let fs = crash_server0_at(3, RestartPolicy::Rejections(2));
        let f = fs.open(0, Clock::new(), "retry");
        f.try_pwritev_direct(&as_segments(&rows)).unwrap();
        let s = f.stats().snapshot();
        assert_eq!((s.writes, s.bytes_written), (4, 4 * SEG));
        assert_eq!((s.retries, s.faults_injected), (2, 1));
        assert_eq!(s.journal_replays, 1, "the second rejection owns recovery");
        assert!(!fs.server_down(0));
        assert_rows_landed(&fs.snapshot("retry").unwrap(), &rows);
    }

    #[test]
    fn submitted_batch_is_deferred_when_healthy_and_synchronous_under_a_plan() {
        let rows = strided_rows(4, 4 * 4096);
        // Healthy: a ticket, redeemed after the submitters' fence.
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "batch");
        let ticket = f.submit_writes(&as_segments(&rows), 0, false).unwrap();
        f.complete_writes(ticket.expect("deferred batch"), 0);
        assert_rows_landed(&fs.snapshot("batch").unwrap(), &rows);
        // Armed: no ticket, and a server that is down takes no byte — the
        // batch stops at the request that finds it so.
        let fs = crash_server0_at(1, RestartPolicy::Manual);
        let f = fs.open(0, Clock::new(), "batch");
        let err = f.submit_writes(&as_segments(&rows), 0, false).unwrap_err();
        assert!(matches!(err, FsError::RetriesExhausted { server: 0, .. }));
        assert_eq!(f.stats().snapshot().bytes_written, 0);
        assert_eq!(fs.servers().pending_requests(), 0);
    }

    #[test]
    fn vector_stops_at_the_failing_segment_with_the_earlier_ones_applied() {
        let k = 3;
        let rows = strided_rows(4, 4 * 4096);
        let fs = crash_server0_at(k, RestartPolicy::Manual);
        let f = fs.open(0, Clock::new(), "stop");
        let err = f.try_pwritev_direct(&as_segments(&rows)).unwrap_err();
        assert_eq!(
            err,
            FsError::RetriesExhausted {
                server: 0,
                attempts: MAX_RETRIES + 1
            }
        );
        // Exactly the first k − 1 segments landed: applied, counted, and
        // their time charged; the failing one and those after it are not.
        let s = f.stats().snapshot();
        assert_eq!((s.writes, s.bytes_written), (k - 1, (k - 1) * SEG));
        assert_eq!(s.server_write_requests, k - 1);
        assert_eq!(f.clock().now(), SEG + LAT + (k - 1) * SERVICE + LAT);
        let (last_off, last) = &rows[k as usize - 2];
        let image = fs.snapshot("stop").unwrap();
        assert_eq!(
            image.len() as u64,
            last_off + SEG,
            "nothing past segment k−1"
        );
        assert_eq!(&image[*last_off as usize..], last.as_slice());
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
        g.try_pwrite(0, &rows[0].1).unwrap();
        g.try_pwrite(4096, &rows[1].1).unwrap();
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
        f.try_pwrite_direct(0, &vec![1u8; 32 * 1024]).unwrap();
        f.try_pwrite_direct(0, &[1u8; 1024]).unwrap();
        let mut buf = vec![0u8; 8 * 1024];
        f.try_pread_direct(0, &mut buf).unwrap();
        let s = f.stats().snapshot();
        assert_eq!(s.server_write_requests, 4 + 1);
        assert_eq!(s.server_read_requests, 2);
    }
}
