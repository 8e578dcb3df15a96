//! Fig. 7(a) measures each point once: a repeat is bit-identical, so
//! repeating it would only cost time. Its own test binary, so the 16 MiB
//! copies do not share the CPU with the library's wall-clock tests.

#[test]
fn fig7a_points_repeat_bit_identically() {
    let first = coyote_bench::experiments::fig7a_gbps(8);
    assert!(first > 0.0);
    assert_eq!(
        coyote_bench::experiments::fig7a_gbps(8).to_bits(),
        first.to_bits()
    );
}
