//! Lock-driven cache coherence (GPFS-style): a held byte-range token
//! confers cache-validity rights, a conflicting acquisition revokes it —
//! flushing the holder's dirty bytes and invalidating exactly the revoked
//! ranges — so atomic locked I/O runs through the client cache with **no
//! blanket invalidation and zero stale reads**.

mod common;

use std::sync::{Arc, Mutex};

use atomio::prelude::*;
use common::{check_colwise, run_colwise};

/// fast_test timing with GPFS-style distributed tokens, lock-driven
/// coherence, and a cache whose write-behind threshold the test working
/// sets stay under (so dirty data really lingers until revoked or synced).
fn gpfs_coherent_profile() -> PlatformProfile {
    PlatformProfile {
        lock_kind: LockKind::Distributed,
        coherence: CoherenceMode::LockDriven,
        cache: CacheParams {
            enabled: true,
            page_size: 1024,
            read_ahead_pages: 2,
            write_behind_limit: 1024 * 1024,
            max_bytes: 4 * 1024 * 1024,
            mem: atomio::vtime::MemCost::new(1.0e9),
        },
        ..PlatformProfile::fast_test()
    }
}

/// The same platform over Lustre-style sharded **token** domains
/// (`LockKind::ShardedTokens`) — the design where a *shared* grant
/// conflict-waits on nobody yet still revokes every overlapping token, so
/// a holder can lose coverage mid-flight with no lock-queue serialization
/// protecting it anywhere. That is the sharpest race the coherence
/// point (the holder's cache mutex) must exclude.
fn sharded_coherent_profile() -> PlatformProfile {
    PlatformProfile {
        lock_kind: LockKind::ShardedTokens,
        ..gpfs_coherent_profile()
    }
}

/// Tiny deterministic PRNG (xorshift) so the stress test needs no seeds
/// from the environment and always replays the same schedule shape.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Randomized revocation stress: concurrent overlapping readers and
/// writers on one file under revocable tokens, all through the client
/// caches, with **no** sync/invalidate calls anywhere. Every byte carries
/// a monotonically increasing version; a shared "floor" array records,
/// for each byte, the newest version whose writer has *released* its
/// lock. A reader holding a shared lock must never observe a byte older
/// than the floor at its grant — if revocation failed to invalidate (or
/// flush) exactly the right ranges, or landed mid-access between a
/// coverage snapshot and the cache fill/dirtying it licensed, a warm
/// stale page would trip the assertion.
fn run_revocation_stress(profile: PlatformProfile) {
    const FILE: u64 = 64 * 1024;
    const ITERS: usize = 60;
    let fs = FileSystem::new(profile);
    let floor = Arc::new(Mutex::new(vec![0u8; FILE as usize]));

    let mut handles = Vec::new();
    for client in 0..4usize {
        let fs = fs.clone();
        let floor = Arc::clone(&floor);
        let writer = client < 2;
        handles.push(std::thread::spawn(move || {
            let f = fs.open(client, Clock::new(), "stress");
            let mut rng = Rng(0x9E3779B97F4A7C15 ^ (client as u64 + 1));
            for _ in 0..ITERS {
                let len = 1 + rng.below(4096);
                let off = rng.below(FILE - len);
                let range = ByteRange::at(off, len);
                if writer {
                    let guard = f.lock(range, LockMode::Exclusive).unwrap();
                    let v = {
                        // Serialized: no other writer can touch these bytes
                        // while we hold the exclusive lock, so the floor
                        // here is stable and max+1 is a fresh version.
                        let fl = floor.lock().unwrap();
                        fl[off as usize..(off + len) as usize]
                            .iter()
                            .copied()
                            .max()
                            .unwrap()
                            + 1
                    };
                    f.try_pwrite(off, &vec![v; len as usize]).unwrap(); // write-behind
                    floor.lock().unwrap()[off as usize..(off + len) as usize].fill(v);
                    guard.release();
                } else {
                    let guard = f.lock(range, LockMode::Shared).unwrap();
                    let snap: Vec<u8> =
                        floor.lock().unwrap()[off as usize..(off + len) as usize].to_vec();
                    let mut buf = vec![0u8; len as usize];
                    f.try_pread(off, &mut buf).unwrap();
                    guard.release();
                    for (i, (&got, &min)) in buf.iter().zip(snap.iter()).enumerate() {
                        assert!(
                            got >= min,
                            "stale read at byte {}: version {got} < floor {min}",
                            off + i as u64
                        );
                    }
                }
            }
            f.try_sync().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // After every handle synced, the servers must hold exactly the newest
    // version of every byte (revocation flushes never resurrect old data).
    let snap = fs.snapshot("stress").unwrap();
    let fl = floor.lock().unwrap();
    for (i, (&got, &want)) in snap.iter().zip(fl.iter()).enumerate() {
        assert_eq!(got, want, "byte {i}: servers hold {got}, newest is {want}");
    }
}

#[test]
fn randomized_concurrent_readers_writers_see_no_stale_bytes() {
    run_revocation_stress(gpfs_coherent_profile());
}

/// The same schedule under `LockKind::ShardedTokens`, where shared-mode
/// grants revoke overlapping in-use tokens *without* conflict-waiting —
/// so revocations genuinely race the holders' cached accesses and only
/// the cache-mutex coherence point stands between them and a stale read.
#[test]
fn randomized_stress_under_sharded_tokens_sees_no_stale_bytes() {
    run_revocation_stress(sharded_coherent_profile());
}

/// The lock-driven visibility contract (GPFS semantics): a locked cached
/// write is guaranteed on the servers only once a conflicting lock is
/// granted (revocation flushes first) or the writer syncs. A reader that
/// locks always sees it; a non-locking accessor (direct reads, snapshot
/// checkers, `ListIo`-style readers) can miss still-buffered bytes even
/// though the writer's lock was long released — unlike the synchronous
/// direct path, where release implies durability.
#[test]
fn write_behind_visibility_contract() {
    let fs = FileSystem::new(gpfs_coherent_profile());
    let w = fs.open(0, Clock::new(), "vis");
    let r = fs.open(1, Clock::new(), "vis");

    let g = w
        .lock(ByteRange::new(0, 1024), LockMode::Exclusive)
        .unwrap();
    w.try_pwrite(0, &[0xCCu8; 1024]).unwrap();
    g.release();

    // Non-locking reader after the release: reads the servers, and the
    // write-behind data legitimately is not there yet.
    let mut buf = [0u8; 1024];
    r.try_pread(0, &mut buf).unwrap();
    assert_eq!(
        buf, [0u8; 1024],
        "a non-locking reader may miss write-behind data — by contract"
    );

    // Locking reader: the shared grant revokes the writer's token, which
    // flushes before the grant completes — never a stale byte.
    let g = r.lock(ByteRange::new(0, 1024), LockMode::Shared).unwrap();
    r.try_pread(0, &mut buf).unwrap();
    g.release();
    assert_eq!(buf, [0xCCu8; 1024], "a locking reader always sees the data");

    // Writer sync is the other publication edge: afterwards even
    // non-locking accessors (here the snapshot checker) see the bytes.
    let g = w
        .lock(ByteRange::new(0, 1024), LockMode::Exclusive)
        .unwrap();
    w.try_pwrite(0, &[0xDDu8; 1024]).unwrap();
    g.release();
    w.try_sync().unwrap();
    assert_eq!(
        &fs.snapshot("vis").unwrap()[..1024],
        &[0xDDu8; 1024][..],
        "sync publishes write-behind data to every accessor"
    );
}

/// Overlapping collective writers with the cache ON and lock-driven
/// coherence: the locking and sieving strategies must stay MPI-atomic
/// with no blanket invalidation anywhere in the path.
#[test]
fn cached_locked_strategies_stay_atomic_under_lock_driven_coherence() {
    let spec = ColWise::new(64, 512, 4, 8).unwrap();
    for strategy in [
        Strategy::FileLocking(LockGranularity::Span),
        Strategy::FileLocking(LockGranularity::Exact),
        Strategy::DataSieving,
    ] {
        let fs = FileSystem::new(gpfs_coherent_profile());
        run_colwise(
            &fs,
            "cached-ld",
            spec,
            Atomicity::Atomic(strategy),
            IoPath::Cached,
        );
        let rep = check_colwise(&fs, "cached-ld", spec);
        assert!(rep.is_atomic(), "{strategy} lock-driven cached: {rep:?}");
    }
}

/// Checkpoint-then-reread through the MPI layer: under lock-driven
/// coherence the re-reads are served from token-protected warm pages —
/// far fewer server read requests than the cache-bypassing direct path.
#[test]
fn checkpoint_reread_is_served_from_warm_cache() {
    let spec = ReaderWriter::new(4, 16 * 1024, 3, 3, RwPreset::CheckpointReread).unwrap();
    let mut reads = Vec::new();
    for cached in [false, true] {
        let fs = FileSystem::new(gpfs_coherent_profile());
        let stats = run(spec.p, fs.profile().net.clone(), |comm| {
            let rank = comm.rank();
            let own = spec.owner_range(rank);
            let mut file = MpiFile::open(&comm, &fs, "ckpt", OpenMode::ReadWrite).unwrap();
            file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
                LockGranularity::Exact,
            )))
            .unwrap();
            file.set_io_path(if cached {
                IoPath::Cached
            } else {
                IoPath::Direct
            });
            comm.barrier();
            for round in 0..spec.rounds {
                let data = vec![spec.stamp(rank, round); spec.block as usize];
                file.write_at(own.start, &data).unwrap();
                comm.barrier();
                let mut buf = vec![0u8; spec.block as usize];
                for _ in 0..spec.rereads {
                    file.read_at(own.start, &mut buf).unwrap();
                    assert!(
                        buf.iter().all(|&b| b == spec.stamp(rank, round)),
                        "rank {rank} round {round}: wrong stamp"
                    );
                }
                comm.barrier();
            }
            file.close().unwrap().stats
        });
        let total_reads: u64 = stats.iter().map(|s| s.server_read_requests).sum();
        let coherent_hits: u64 = stats.iter().map(|s| s.coherent_hit_bytes).sum();
        if cached {
            assert!(coherent_hits > 0, "re-reads must hit token-covered pages");
        }
        reads.push(total_reads);
        assert_eq!(fs.snapshot("ckpt").unwrap(), spec.expected_final());
    }
    let (direct, cached) = (reads[0], reads[1]);
    assert!(
        cached * 5 <= direct,
        "lock-driven cached re-reads ({cached} server reads) must be >= 5x cheaper \
         than bypass ({direct})"
    );
}

/// Producer-consumer ring: every round the consumer's shared-lock
/// acquisition must revoke the producer's token, flushing its write-behind
/// data — and the consumer must observe the exact current-round stamp.
#[test]
fn producer_consumer_revocations_flush_write_behind_exactly() {
    let spec = ReaderWriter::new(4, 8 * 1024, 4, 1, RwPreset::ProducerConsumer).unwrap();
    let fs = FileSystem::new(gpfs_coherent_profile());
    let stats = run(spec.p, fs.profile().net.clone(), |comm| {
        let rank = comm.rank();
        let own = spec.owner_range(rank);
        let read = spec.read_range(rank);
        let target = spec.read_target(rank);
        let mut file = MpiFile::open(&comm, &fs, "ring", OpenMode::ReadWrite).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Exact,
        )))
        .unwrap();
        file.set_io_path(IoPath::Cached);
        comm.barrier();
        for round in 0..spec.rounds {
            let data = vec![spec.stamp(rank, round); spec.block as usize];
            file.write_at(own.start, &data).unwrap();
            comm.barrier();
            let mut buf = vec![0u8; spec.block as usize];
            file.read_at(read.start, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == spec.stamp(target, round)),
                "rank {rank} round {round}: stale or torn consumer read"
            );
            comm.barrier();
        }
        file.close().unwrap().stats
    });
    let revocations: u64 = stats.iter().map(|s| s.revocations_served).sum();
    let flushed: u64 = stats.iter().map(|s| s.revoke_flushed_bytes).sum();
    let invalidated: u64 = stats.iter().map(|s| s.coherence_invalidated_bytes).sum();
    assert!(revocations > 0, "the ring must ping-pong tokens");
    assert!(flushed > 0, "revocations must flush write-behind data");
    assert!(
        invalidated > 0,
        "revocations must invalidate the lost ranges"
    );
    assert_eq!(fs.snapshot("ring").unwrap(), spec.expected_final());
}
