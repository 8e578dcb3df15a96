//! Driving the platform from the discrete-event engine: a periodic
//! telemetry workload scheduled as events, with the platform embedded as
//! the world of a one-shard simulation. `Platform` is not `Send`, so the
//! engine runs it on the calling thread.

use coyote::kernel::Passthrough;
use coyote::{CThread, Oper, Platform, SgEntry, ShellConfig};
use coyote_sim::{
    EventTag, ShardSpec, ShardedSimulation, SimDuration, SimTime, Topology, DOMAIN_SCHED,
};

struct World {
    platform: Platform,
    thread: CThread,
    sg: SgEntry,
    submitted: u32,
}

#[test]
fn periodic_invocations_from_the_event_loop() {
    let mut platform = Platform::load(ShellConfig::host_only(1)).unwrap();
    platform
        .load_kernel(0, Box::new(Passthrough::default()))
        .unwrap();
    let thread = CThread::create(&mut platform, 0, 1).unwrap();
    let src = thread.get_mem(&mut platform, 64 * 1024).unwrap();
    let dst = thread.get_mem(&mut platform, 64 * 1024).unwrap();
    thread
        .write(&mut platform, src, &vec![7u8; 64 * 1024])
        .unwrap();

    let world = World {
        platform,
        thread,
        sg: SgEntry::local(src, dst, 64 * 1024),
        submitted: 0,
    };
    let mut topo = Topology::new();
    topo.add_shard(ShardSpec {
        domain: DOMAIN_SCHED,
        name: "telemetry",
    })
    .unwrap();
    let mut sim = ShardedSimulation::new(topo, vec![world]);
    // A telemetry tick every 100 us: each tick advances the platform clock
    // to the event time and queues one transfer.
    for i in 0..20u64 {
        let at = SimTime::ZERO + SimDuration::from_us(100 * i);
        sim.seed(
            DOMAIN_SCHED,
            at,
            EventTag::default(),
            |w: &mut World, ctx| {
                w.platform.advance_to(ctx.now());
                w.thread
                    .invoke(&mut w.platform, Oper::LocalTransfer, &w.sg)
                    .unwrap();
                w.submitted += 1;
            },
        )
        .unwrap();
    }
    sim.run();
    let world = sim.world_of_mut(DOMAIN_SCHED).unwrap();
    assert_eq!(world.submitted, 20);

    // Execute the queued work; completions must respect the staggered
    // issue times (each tick's invocation was issued at its event time).
    let completions = world.platform.drain().unwrap();
    assert_eq!(completions.len(), 20);
    for (i, c) in completions.iter().enumerate() {
        assert_eq!(
            c.issued_at.as_ps() / 1_000_000,
            (i as u64) * 100,
            "issue times follow the event schedule"
        );
        assert!(c.completed_at > c.issued_at);
    }
}
