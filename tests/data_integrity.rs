//! End-to-end data integrity through the full shell datapath: what goes
//! through the kernels must be byte-exact with the software reference,
//! across host and card paths, packet boundaries and odd lengths.

use coyote::kernel::Passthrough;
use coyote::{CThread, Oper, Platform, PlatformError, SgEntry, ShellConfig};
use coyote_apps::{Aes128, AesCbcKernel, AesEcbKernel, HllKernel, VecAddKernel};

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

#[test]
fn passthrough_odd_lengths() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    for len in [1u64, 63, 64, 65, 4095, 4096, 4097, 100_000] {
        let src = t.get_mem(&mut p, len).unwrap();
        let dst = t.get_mem(&mut p, len).unwrap();
        let data = pattern(len as usize, len as u8);
        t.write(&mut p, src, &data).unwrap();
        let c = t
            .invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, len))
            .unwrap();
        assert_eq!(c.bytes_in, len);
        assert_eq!(c.bytes_out, len);
        assert_eq!(t.read(&p, dst, len as usize).unwrap(), data, "len {len}");
    }
}

#[test]
fn cbc_across_many_packets_matches_one_shot_software() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(AesCbcKernel::new())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    t.set_csr(&mut p, 0xFEED_F00D, 0).unwrap();
    let len = 256 * 1024u64; // 64 packets.
    let src = t.get_mem(&mut p, len).unwrap();
    let dst = t.get_mem(&mut p, len).unwrap();
    let plain = pattern(len as usize, 3);
    t.write(&mut p, src, &plain).unwrap();
    t.invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, len))
        .unwrap();
    let got = t.read(&p, dst, len as usize).unwrap();
    let mut expect = plain;
    Aes128::from_u64(0xFEED_F00D, 0).encrypt_cbc(&mut expect, [0u8; 16]);
    assert_eq!(got, expect);
}

#[test]
fn card_path_roundtrip_with_ecb() {
    // src on card, dst on card: the full HBM path with striping.
    let mut p = Platform::load(ShellConfig::host_memory(1, 8)).unwrap();
    p.load_kernel(0, Box::new(AesEcbKernel::new())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    t.set_csr(&mut p, 0xABCD, 0).unwrap();
    let len = 128 * 1024u64;
    let src = t.get_card_mem(&mut p, len).unwrap();
    let dst = t.get_card_mem(&mut p, len).unwrap();
    let plain = pattern(len as usize, 9);
    t.write(&mut p, src, &plain).unwrap();
    t.invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, len))
        .unwrap();
    let got = t.read(&p, dst, len as usize).unwrap();
    let mut expect = plain;
    Aes128::from_u64(0xABCD, 0).encrypt_ecb(&mut expect);
    assert_eq!(got, expect);
}

#[test]
fn mixed_locations_host_to_card() {
    let mut p = Platform::load(ShellConfig::host_memory(1, 4)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let len = 32 * 1024u64;
    let src = t.get_mem(&mut p, len).unwrap(); // Host.
    let dst = t.get_card_mem(&mut p, len).unwrap(); // Card.
    let data = pattern(len as usize, 5);
    t.write(&mut p, src, &data).unwrap();
    t.invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, len))
        .unwrap();
    assert_eq!(t.read(&p, dst, len as usize).unwrap(), data);
}

#[test]
fn hll_sink_estimates_over_control_bus() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(HllKernel::new())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let n = 50_000u64;
    let len = n * 8;
    let src = t.get_mem(&mut p, len).unwrap();
    let mut items = Vec::with_capacity(len as usize);
    for i in 0..n {
        items.extend_from_slice(&i.to_le_bytes());
    }
    t.write(&mut p, src, &items).unwrap();
    let c = t
        .invoke_sync(&mut p, Oper::LocalRead, &SgEntry::source(src, len))
        .unwrap();
    assert_eq!(c.bytes_out, 0, "HLL is a sink");
    let est = t.get_csr(&mut p, 0).unwrap() as f64;
    let rel_err = (est - n as f64).abs() / n as f64;
    assert!(rel_err < 0.03, "estimate {est} for {n}");
}

#[test]
fn vecadd_two_stream_protocol() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(VecAddKernel::new())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let n = 8192usize;
    let a: Vec<i64> = (0..n as i64).collect();
    let b: Vec<i64> = (0..n as i64).map(|x| x * 3).collect();
    let bytes = |v: &[i64]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
    let len = (n * 8) as u64;
    let buf_a = t.get_mem(&mut p, len).unwrap();
    let buf_b = t.get_mem(&mut p, len).unwrap();
    let buf_out = t.get_mem(&mut p, len).unwrap();
    t.write(&mut p, buf_a, &bytes(&a)).unwrap();
    t.write(&mut p, buf_b, &bytes(&b)).unwrap();

    // Phase 0: preload A. Phase 1: stream B, collect A+B.
    t.set_csr(&mut p, 0, 0).unwrap();
    t.invoke_sync(&mut p, Oper::LocalRead, &SgEntry::source(buf_a, len))
        .unwrap();
    t.set_csr(&mut p, 1, 0).unwrap();
    t.invoke_sync(
        &mut p,
        Oper::LocalTransfer,
        &SgEntry::local(buf_b, buf_out, len),
    )
    .unwrap();

    let out = t.read(&p, buf_out, len as usize).unwrap();
    let got: Vec<i64> = out
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let expect: Vec<i64> = (0..n as i64).map(|x| x + x * 3).collect();
    assert_eq!(got, expect);
}

#[test]
fn completion_latency_ordering_is_sane() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let src = t.get_mem(&mut p, 1 << 20).unwrap();
    let dst = t.get_mem(&mut p, 1 << 20).unwrap();
    let small = t
        .invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, 4096))
        .unwrap();
    let large = t
        .invoke_sync(
            &mut p,
            Oper::LocalTransfer,
            &SgEntry::local(src, dst, 1 << 20),
        )
        .unwrap();
    assert!(large.latency() > small.latency());
    assert!(
        large.completed_at > small.completed_at,
        "the clock advances across drains"
    );
}

// A drain reads each source byte when its kernel consumes it and writes
// each output at once, so a batch must not write what it also reads.

#[test]
fn batch_writing_what_it_reads_is_refused_before_any_byte_moves() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let len = 16 * 1024u64;
    let (a, b, c) = (
        t.get_mem(&mut p, len).unwrap(),
        t.get_mem(&mut p, len).unwrap(),
        t.get_mem(&mut p, len).unwrap(),
    );
    let (da, db) = (pattern(len as usize, 1), pattern(len as usize, 2));
    t.write(&mut p, a, &da).unwrap();
    t.write(&mut p, b, &db).unwrap();
    let moved = p.host_bytes_moved();

    // In place: one invocation reads and writes `a`.
    let id = t
        .invoke(&mut p, Oper::LocalTransfer, &SgEntry::local(a, a, len))
        .unwrap();
    let err = p.drain().unwrap_err();
    assert!(
        matches!(err, PlatformError::ReadWriteOverlap { reader, writer } if reader == id && writer == id),
        "{err}"
    );

    // Across invocations: the first writes into the second half of `a`,
    // which the second reads.
    let writer = t
        .invoke(
            &mut p,
            Oper::LocalTransfer,
            &SgEntry::local(b, a + len / 2, len),
        )
        .unwrap();
    let reader = t
        .invoke(&mut p, Oper::LocalTransfer, &SgEntry::local(a, c, len))
        .unwrap();
    let err = p.drain().unwrap_err();
    assert!(
        matches!(err, PlatformError::ReadWriteOverlap { reader: r, writer: w } if r == reader && w == writer),
        "{err}"
    );

    assert_eq!(p.host_bytes_moved(), moved, "nothing was booked");
    assert_eq!(t.read(&p, a, len as usize).unwrap(), da);
    assert_eq!(t.read(&p, b, len as usize).unwrap(), db);
    assert_eq!(t.read(&p, c, len as usize).unwrap(), vec![0; len as usize]);
}

#[test]
fn cbc_transfers_of_one_thread_to_one_destination_keep_the_last_output() {
    // Writes may overlap: outputs are written in the order they are
    // booked, so the destination keeps the output booked last. Both
    // transfers write `dst`, and the second finds its translation in the
    // TLB where the first missed, so its packets are ready first: the
    // thread's CBC chain runs through all of p2, then all of p1, and the
    // destination ends with p1's ciphertext.
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(AesCbcKernel::new())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    t.set_csr(&mut p, 0x5EED, 0).unwrap();
    let len = 12 * 1024u64; // Three packets each.
    let (s1, s2, dst) = (
        t.get_mem(&mut p, len).unwrap(),
        t.get_mem(&mut p, len).unwrap(),
        t.get_mem(&mut p, len).unwrap(),
    );
    let (p1, p2) = (pattern(len as usize, 5), pattern(len as usize, 6));
    t.write(&mut p, s1, &p1).unwrap();
    t.write(&mut p, s2, &p2).unwrap();
    let ids: Vec<u64> = [s1, s2]
        .into_iter()
        .map(|src| {
            t.invoke(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, len))
                .unwrap()
        })
        .collect();
    let done: Vec<u64> = p.drain().unwrap().iter().map(|c| c.invocation).collect();
    assert_eq!(done, [ids[1], ids[0]], "completion order");
    let mut chain = [p2, p1].concat();
    Aes128::from_u64(0x5EED, 0).encrypt_cbc(&mut chain, [0u8; 16]);
    assert_eq!(
        t.read(&p, dst, len as usize).unwrap(),
        chain[len as usize..]
    );
}

#[test]
fn source_past_the_end_of_its_memory_fails_the_drain_before_any_write() {
    // One HBM channel: card memory ends after 512 MiB. The bad source
    // starts 1 MiB before that end and runs 4 KiB past it, so its first
    // 256 packets are readable: the range is checked whole, up front, not
    // when its last packet is read.
    let mut p = Platform::load(ShellConfig::host_memory(1, 1)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let len = 4096u64;
    let (src, dst) = (
        t.get_mem(&mut p, len).unwrap(),
        t.get_mem(&mut p, len).unwrap(),
    );
    t.write(&mut p, src, &pattern(len as usize, 7)).unwrap();
    let before = pattern(len as usize, 8);
    t.write(&mut p, dst, &before).unwrap();
    let huge = 2 << 20;
    t.get_card_mem(&mut p, coyote_sim::params::HBM_CHANNEL_BYTES - huge)
        .unwrap();
    let last = t.get_card_mem(&mut p, huge).unwrap();
    let end = last + huge;

    t.invoke(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, len))
        .unwrap();
    t.invoke(
        &mut p,
        Oper::LocalRead,
        &SgEntry::source(end - (1 << 20), (1 << 20) + 4096),
    )
    .unwrap();
    let err = p.drain().unwrap_err();
    assert!(
        matches!(
            err,
            PlatformError::Driver(coyote_driver::DriverError::BadAddress(_))
        ),
        "{err}"
    );
    assert_eq!(t.read(&p, dst, len as usize).unwrap(), before);
}
