//! Model-based property test of the cached I/O path: a random sequence of
//! cached/direct writes, reads, syncs and invalidations on ONE client must
//! always read back exactly what a flat byte-array model predicts — the
//! cache may only change *when* data becomes globally visible, never *what*
//! a single client observes of its own operations.

use atomio_pfs::{FileSystem, IoPath, PlatformProfile};
use atomio_vtime::Clock;
use proptest::prelude::*;

const FILE: u64 = 16 * 1024;

#[derive(Debug, Clone)]
enum Op {
    WriteCached { off: u64, len: u64, fill: u8 },
    WriteDirect { off: u64, len: u64, fill: u8 },
    Read { off: u64, len: u64 },
    Sync,
    Invalidate,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..FILE - 256, 1u64..256, any::<u8>())
            .prop_map(|(off, len, fill)| Op::WriteCached { off, len, fill }),
        2 => (0..FILE - 256, 1u64..256, any::<u8>())
            .prop_map(|(off, len, fill)| Op::WriteDirect { off, len, fill }),
        3 => (0..FILE - 256, 1u64..256).prop_map(|(off, len)| Op::Read { off, len }),
        1 => Just(Op::Sync),
        1 => Just(Op::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_client_cache_matches_flat_model(ops in prop::collection::vec(arb_op(), 1..60)) {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let f = fs.open(0, Clock::new(), "model");
        let mut model = vec![0u8; FILE as usize];

        for op in &ops {
            match *op {
                Op::WriteCached { off, len, fill } => {
                    f.write(IoPath::Cached, [(off, &vec![fill; len as usize])]).unwrap();
                    model[off as usize..(off + len) as usize].fill(fill);
                }
                Op::WriteDirect { off, len, fill } => {
                    // A direct write bypasses the cache; to keep the single-
                    // client view coherent the client must first flush its
                    // own overlapping dirty data (like O_DIRECT discipline).
                    f.try_sync().unwrap();
                    f.write(IoPath::Direct, [(off, &vec![fill; len as usize])]).unwrap();
                    // ...and drop stale clean pages covering that range.
                    f.try_invalidate().unwrap();
                    model[off as usize..(off + len) as usize].fill(fill);
                }
                Op::Read { off, len } => {
                    let mut buf = vec![0u8; len as usize];
                    f.read(IoPath::Cached, [(off, &mut buf)]).unwrap();
                    prop_assert_eq!(
                        &buf[..],
                        &model[off as usize..(off + len) as usize],
                        "cached read mismatch at {}..{}",
                        off,
                        off + len
                    );
                }
                Op::Sync => f.try_sync().unwrap(),
                Op::Invalidate => f.try_invalidate().unwrap(),
            }
        }

        // After a final sync, the server-side file must equal the model.
        f.try_sync().unwrap();
        let snap = fs.snapshot("model").unwrap().to_vec();
        let written = snap.len().min(model.len());
        prop_assert_eq!(&snap[..written], &model[..written]);
        prop_assert!(model[written..].iter().all(|&b| b == 0));
    }

    #[test]
    fn clock_monotone_under_any_sequence(ops in prop::collection::vec(arb_op(), 1..40)) {
        let fs = FileSystem::new(PlatformProfile::cplant());
        let f = fs.open(0, Clock::new(), "mono");
        let mut last = 0;
        for op in &ops {
            match *op {
                Op::WriteCached { off, len, fill } => {
                    f.write(IoPath::Cached, [(off, &vec![fill; len as usize])])
                }
                Op::WriteDirect { off, len, fill } => {
                    f.write(IoPath::Direct, [(off, &vec![fill; len as usize])])
                }
                Op::Read { off, len } => {
                    let mut buf = vec![0u8; len as usize];
                    f.read(IoPath::Cached, [(off, &mut buf)])
                }
                Op::Sync => f.try_sync(),
                Op::Invalidate => f.try_invalidate(),
            }
            .unwrap();
            let now = f.clock().now();
            prop_assert!(now >= last, "clock went backwards: {last} -> {now}");
            last = now;
        }
    }
}
