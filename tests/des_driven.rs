//! Driving the platform from a discrete-event loop: a periodic telemetry
//! workload whose ticks each advance the platform clock to the tick's time
//! and queue one invocation, followed by a single drain.

use coyote::kernel::Passthrough;
use coyote::{CThread, Oper, Platform, SgEntry, ShellConfig};
use coyote_sim::{SimDuration, SimTime};

#[test]
fn periodic_invocations_from_the_event_loop() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let src = t.get_mem(&mut p, 64 * 1024).unwrap();
    let dst = t.get_mem(&mut p, 64 * 1024).unwrap();
    t.write(&mut p, src, &vec![7u8; 64 * 1024]).unwrap();
    let sg = SgEntry::local(src, dst, 64 * 1024);
    // A telemetry tick every 100 us: each tick advances the platform clock
    // and queues one transfer; one drain then executes all of them.
    for i in 0..20u64 {
        p.advance_to(SimTime::ZERO + SimDuration::from_us(100 * i));
        t.invoke(&mut p, Oper::LocalTransfer, &sg).unwrap();
    }
    let completions = p.drain().unwrap();
    assert_eq!(completions.len(), 20);
    for (i, c) in completions.iter().enumerate() {
        assert_eq!(
            c.issued_at,
            SimTime::ZERO + SimDuration::from_us(100 * i as u64),
            "each invocation is issued at the clock it was queued at"
        );
        assert!(c.completed_at > c.issued_at);
    }
}
