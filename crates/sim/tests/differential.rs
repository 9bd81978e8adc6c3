//! Kernel property tests for the slab/enum DES engine ([`Sim`]).
//!
//! Each property generates a random *schedule program* — a plain data
//! structure — and checks the firing log (event id and virtual time of
//! every firing), the final clock, and the executed-event count. The
//! programs exercise the ordering edge cases: same-instant bursts (FIFO
//! by scheduling order), events scheduling further events from inside
//! their own firing, and past-instant schedules that must clamp to "now".
//!
//! Closure and timer programs are checked against [`Model`], a small
//! ordered event queue that states the kernel's contract directly.
//! Station programs and the mixed transcript depend on how stations
//! chain their internal events, so their observables are pinned to
//! digests recorded from the pre-overhaul boxed-closure engine, one per
//! generated case (the offline `proptest` stub seeds each property from
//! its name, so the cases are fixed). On a mismatch the test prints the
//! case's inputs and observables. A deliberate change to station
//! semantics must re-record [`STATION_PINS`] and [`MIXED_PIN`] from the
//! failing output.

use lambda_sim::{every, Sim, SimDuration, SimTime, Station};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::rc::Rc;

/// Nanoseconds per delay unit. Delays are drawn from a tiny integer range
/// so that same-instant collisions are common, then scaled up.
const TICK: u64 = 1_000;

/// A firing log entry `(time_ns, event_id)`, plus `(final_now_ns,
/// events_executed)`.
type Transcript = (Vec<(u64, u32)>, u64, u64);

/// FNV-1a over the `Debug` rendering. Exact for the integers and
/// `SimTime`/`SimDuration` newtypes these observables are made of.
fn digest(x: &impl Debug) -> u64 {
    format!("{x:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Asserts that `case` (a case's inputs followed by its observables) is
/// one of the recorded `pins`.
fn assert_pinned(pins: &[u64], case: &impl Debug) {
    let got = digest(case);
    assert!(pins.contains(&got), "digest {got:#x} is not a recorded case: {case:#?}");
}

/// The kernel's contract as a reference: pending events ordered by
/// `(time, schedule order)`, past instants clamped to now, one executed
/// event per firing.
struct Model<E> {
    now: u64,
    seq: u64,
    executed: u64,
    queue: BTreeMap<(u64, u64), E>,
}

impl<E> Model<E> {
    fn new() -> Self {
        Model { now: 0, seq: 0, executed: 0, queue: BTreeMap::new() }
    }

    fn schedule_at(&mut self, at: u64, event: E) {
        self.queue.insert((at.max(self.now), self.seq), event);
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<E> {
        let ((at, _), event) = self.queue.pop_first()?;
        self.now = at;
        self.executed += 1;
        Some(event)
    }
}

/// One root event: fires after `delay`, then schedules its children.
#[derive(Debug, Clone)]
struct RootSpec {
    id: u32,
    delay: u64,
    children: Vec<ChildSpec>,
}

/// A child event scheduled from inside its parent's firing. When `past` is
/// set it is scheduled at `parent_fire_time - delay` (clamped by the
/// engine); otherwise at `parent_fire_time + delay`.
#[derive(Debug, Clone)]
struct ChildSpec {
    id: u32,
    delay: u64,
    past: bool,
    grandchildren: Vec<(u32, u64)>,
}

impl ChildSpec {
    fn at(&self, parent_fired: u64) -> u64 {
        if self.past {
            parent_fired.saturating_sub(self.delay * TICK)
        } else {
            parent_fired + self.delay * TICK
        }
    }
}

/// Assigns stable event ids to a raw generated program, in generation
/// order, so the engine and the model label firings identically.
fn number_program(raw: Vec<(u64, Vec<(u64, bool, Vec<u64>)>)>) -> Vec<RootSpec> {
    let mut next_id = 0u32;
    let mut id = || {
        let v = next_id;
        next_id += 1;
        v
    };
    raw.into_iter()
        .map(|(delay, children)| RootSpec {
            id: id(),
            delay,
            children: children
                .into_iter()
                .map(|(cdelay, past, grand)| ChildSpec {
                    id: id(),
                    delay: cdelay,
                    past,
                    grandchildren: grand.into_iter().map(|gdelay| (id(), gdelay)).collect(),
                })
                .collect(),
        })
        .collect()
}

fn run_closure_program(program: &[RootSpec]) -> Transcript {
    let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Sim::new(7);
    for root in program.iter().cloned() {
        let log = Rc::clone(&log);
        sim.schedule(SimDuration::from_nanos(root.delay * TICK), move |sim| {
            log.borrow_mut().push((sim.now().as_nanos(), root.id));
            for child in root.children.iter().cloned() {
                let log = Rc::clone(&log);
                let at = SimTime::from_nanos(child.at(sim.now().as_nanos()));
                sim.schedule_at(at, move |sim| {
                    log.borrow_mut().push((sim.now().as_nanos(), child.id));
                    for (gid, gdelay) in child.grandchildren.iter().copied() {
                        let log = Rc::clone(&log);
                        sim.schedule(SimDuration::from_nanos(gdelay * TICK), move |sim| {
                            log.borrow_mut().push((sim.now().as_nanos(), gid));
                        });
                    }
                });
            }
        });
    }
    sim.run();
    let events = Rc::try_unwrap(log).expect("run complete").into_inner();
    (events, sim.now().as_nanos(), sim.events_executed())
}

fn model_closure_program(program: &[RootSpec]) -> Transcript {
    enum Fire<'a> {
        Root(&'a RootSpec),
        Child(&'a ChildSpec),
        Leaf(u32),
    }
    let mut model = Model::new();
    let mut log = Vec::new();
    for root in program {
        model.schedule_at(root.delay * TICK, Fire::Root(root));
    }
    while let Some(fire) = model.pop() {
        let now = model.now;
        match fire {
            Fire::Root(root) => {
                log.push((now, root.id));
                for child in &root.children {
                    model.schedule_at(child.at(now), Fire::Child(child));
                }
            }
            Fire::Child(child) => {
                log.push((now, child.id));
                for &(gid, gdelay) in &child.grandchildren {
                    model.schedule_at(now + gdelay * TICK, Fire::Leaf(gid));
                }
            }
            Fire::Leaf(id) => log.push((now, id)),
        }
    }
    (log, model.now, model.executed)
}

/// One timer: starts at `first`, ticks every `period + 1` units, cancels
/// itself after `ticks + 1` firings.
#[derive(Debug, Clone)]
struct TimerSpec {
    id: u32,
    first: u64,
    period: u64,
    ticks: u8,
}

/// The id logged by the one-shot closures interleaved with the timers.
const BURST: u32 = u32::MAX;

fn run_timer_program(timers: &[TimerSpec], bursts: &[u64]) -> Transcript {
    let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Sim::new(7);
    for (i, spec) in timers.iter().cloned().enumerate() {
        let tick_log = Rc::clone(&log);
        let mut left = u32::from(spec.ticks) + 1;
        every(
            &mut sim,
            SimTime::from_nanos(spec.first * TICK),
            SimDuration::from_nanos((spec.period + 1) * TICK),
            move |sim| {
                tick_log.borrow_mut().push((sim.now().as_nanos(), spec.id));
                left -= 1;
                left > 0
            },
        );
        // Interleave one-shot closures between timer registrations so
        // timers and closures must agree on mixed-variant FIFO order too.
        if let Some(&delay) = bursts.get(i) {
            let log = Rc::clone(&log);
            sim.schedule(SimDuration::from_nanos(delay * TICK), move |sim| {
                log.borrow_mut().push((sim.now().as_nanos(), BURST));
            });
        }
    }
    sim.run();
    let events = Rc::try_unwrap(log).expect("run complete").into_inner();
    (events, sim.now().as_nanos(), sim.events_executed())
}

/// A timer re-arms after its tick returns, so its next firing is
/// scheduled after anything the tick itself scheduled.
fn model_timer_program(timers: &[TimerSpec], bursts: &[u64]) -> Transcript {
    enum Fire<'a> {
        Tick(&'a TimerSpec, u32),
        Burst,
    }
    let mut model = Model::new();
    let mut log = Vec::new();
    for (i, spec) in timers.iter().enumerate() {
        model.schedule_at(spec.first * TICK, Fire::Tick(spec, u32::from(spec.ticks) + 1));
        if let Some(&delay) = bursts.get(i) {
            model.schedule_at(delay * TICK, Fire::Burst);
        }
    }
    while let Some(fire) = model.pop() {
        let now = model.now;
        match fire {
            Fire::Tick(spec, left) => {
                log.push((now, spec.id));
                if left > 1 {
                    model.schedule_at(now + (spec.period + 1) * TICK, Fire::Tick(spec, left - 1));
                }
            }
            Fire::Burst => log.push((now, BURST)),
        }
    }
    (log, model.now, model.executed)
}

/// One station job: submitted at `submit_at`, needing `service` time, on
/// station `station` (two stations exist, with 1 and 2 servers).
#[derive(Debug, Clone)]
struct JobSpec {
    id: u32,
    submit_at: u64,
    service: u64,
    station: bool,
}

fn run_station_program(
    jobs: &[JobSpec],
    resizes: &[(u64, bool, u32)],
) -> (Vec<(u64, u32)>, u64, u64, [lambda_sim::StationStats; 2]) {
    let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Sim::new(7);
    let stations = [Station::new("s", 1), Station::new("s", 2)];
    for job in jobs.iter().cloned() {
        let log = Rc::clone(&log);
        let station = Rc::clone(&stations[usize::from(job.station)]);
        sim.schedule(SimDuration::from_nanos(job.submit_at * TICK), move |sim| {
            let log = Rc::clone(&log);
            let service = SimDuration::from_nanos(job.service * TICK);
            Station::submit(&station, sim, service, move |sim| {
                log.borrow_mut().push((sim.now().as_nanos(), job.id));
            });
        });
    }
    for (at, which, servers) in resizes.iter().copied() {
        let station = Rc::clone(&stations[usize::from(which)]);
        sim.schedule(SimDuration::from_nanos(at * TICK), move |_| {
            station.borrow_mut().set_servers(servers + 1);
        });
    }
    sim.run();
    let stats = [stations[0].borrow().stats(), stations[1].borrow().stats()];
    let events = Rc::try_unwrap(log).expect("run complete").into_inner();
    (events, sim.now().as_nanos(), sim.events_executed(), stats)
}

/// Recorded digests of `(jobs, resizes, observables)` for every case of
/// `station_programs_complete_identically`.
#[rustfmt::skip]
const STATION_PINS: &[u64] = &[
    0xc851_5615_2780_c9c3, 0x5bb8_ed7e_4e0e_0c1a, 0xae5f_edd3_7568_b890, 0x7458_7631_4d21_fafd,
    0x6cfd_0f63_e8ac_8c6a, 0x328b_09c2_9ffd_3d6a, 0x5765_d912_321e_50da, 0x9066_1cbc_2567_449a,
    0x0ea1_2e9b_5731_9d10, 0x629e_5502_ca86_f114, 0xd5e9_2d75_f9d9_b227, 0xf61f_51ab_2c6b_c083,
    0x3f36_38b0_9baf_e919, 0x3f45_3c43_b4d7_fb29, 0x5005_0a28_d106_37ab, 0xb14f_80ff_0eb7_7d71,
    0xdb2d_ac0d_a574_bdbc, 0x222f_9079_4add_e375, 0x1a60_5d44_712c_d01d, 0x3f54_f5ba_776b_58f5,
    0x0d32_1699_4b8f_b8d8, 0xa185_3a18_4fa2_a73f, 0xb0c0_9977_81de_5902, 0x7c16_13fd_5d2a_25bf,
    0x46d3_2a69_f8a7_beb5, 0x8979_f49a_4b88_ce6b, 0x4040_3834_b56e_55a3, 0x7892_f559_677a_f344,
    0x2da4_e7a2_7f8b_e719, 0x1061_d71a_e43e_94af, 0xd6c7_49b8_a5b8_6e65, 0x6641_52a2_f9fd_e4fa,
    0x4575_34f9_7f03_dc55, 0x0c17_12aa_1b85_7ccb, 0x04a1_1932_4e59_c96a, 0x0857_4691_521e_fb5d,
    0x22ec_f46c_2a50_4b29, 0x7c55_8084_924c_3ed1, 0x9ee3_92e1_37c2_610e, 0x5bb1_722d_9a76_2228,
    0xdc9d_e301_64aa_26c1, 0xe98b_a0b0_1827_3d53, 0x07cc_d46a_d544_8d8b, 0x5b6a_bed8_691d_3bd1,
    0x814a_ef7b_cd2d_25e3, 0x456e_23fa_7dd5_24e0, 0x4c6e_8837_612a_224a, 0x0423_0c05_6f8a_2238,
    0x94d5_f6c7_df71_f6cd, 0x14de_0175_9f76_0807, 0xbe90_a669_dbe3_2ac3, 0xf955_2012_2e0e_5fab,
    0x9b2b_488f_736a_9bae, 0x64e8_4848_cf9e_9366, 0x3f66_6408_2bd4_f748, 0x4c60_b4e7_4548_05c0,
    0xa58b_c713_0a97_3772, 0x84fc_d8b6_66bd_e860, 0xbccb_b318_9c3e_6e7c, 0x4db9_e620_7681_7d3c,
    0x134a_e686_2f5f_17a5, 0x4bf9_25c5_8467_c3b9, 0x1b7f_e737_747c_f565, 0xb64b_ac01_0bb8_2918,
    0x4d53_1bdb_eed1_f2bf, 0xf732_2c46_12a3_66ce, 0x54d2_77e2_cce1_b966, 0xca7c_533c_6bab_0427,
    0x9146_6093_55e9_b305, 0x4b97_9288_8e2a_433c, 0xdb15_602d_debe_f661, 0x90ad_a09c_be64_4161,
    0xf26b_a4f6_f0cb_545f, 0xe435_c91e_836e_e1a1, 0x07f4_ba86_5cf4_1f21, 0xf081_7fa8_c604_e33c,
    0x32c2_3cbc_ea7d_a7d2, 0xf127_2421_3f33_c840, 0xaef5_1690_9efa_d755, 0xb835_b20c_8325_b9e4,
    0x4c7b_f96c_0ee0_20be, 0x31a1_7eba_e7c7_edf6, 0x324e_740d_bfd8_e335, 0x7d04_7097_da89_28ac,
    0x3cf4_b6ab_7356_9413, 0xac95_9275_f5a5_4cda, 0x3893_5c13_d781_1f00, 0xaeb4_bbca_404d_90e0,
    0x220b_f825_7334_54e8, 0xea54_d656_c238_93e1, 0xe00b_f06a_6dfc_ece7, 0xc3f7_bf36_c5e9_9cdf,
    0xeee6_8668_163f_6f09, 0x14da_7257_48a9_2931, 0x1ca0_0cde_3133_ae71, 0x3f83_0413_45ee_b31d,
];

/// Recorded digest of `mixed_kernel_transcripts_match`'s transcript.
const MIXED_PIN: u64 = 0x9b69_96f7_2a24_7e18;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn closure_schedules_fire_identically(
        raw in prop::collection::vec(
            (
                0..8u64,
                prop::collection::vec(
                    (0..8u64, any::<bool>(), prop::collection::vec(0..8u64, 0..3)),
                    0..4,
                ),
            ),
            0..24,
        ),
    ) {
        let program = number_program(raw);
        prop_assert_eq!(run_closure_program(&program), model_closure_program(&program));
    }

    #[test]
    fn timer_programs_tick_identically(
        raw in prop::collection::vec((0..6u64, 0..4u64, 0..5u8), 0..8),
        bursts in prop::collection::vec(0..20u64, 0..8),
    ) {
        let timers: Vec<TimerSpec> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (first, period, ticks))| TimerSpec {
                id: u32::try_from(i).expect("small index"),
                first,
                period,
                ticks,
            })
            .collect();
        prop_assert_eq!(
            run_timer_program(&timers, &bursts),
            model_timer_program(&timers, &bursts)
        );
    }

    #[test]
    fn station_programs_complete_identically(
        raw in prop::collection::vec((0..12u64, 0..10u64, any::<bool>()), 0..32),
        resizes in prop::collection::vec((0..12u64, any::<bool>(), 0..3u32), 0..4),
    ) {
        let jobs: Vec<JobSpec> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (submit_at, service, station))| JobSpec {
                id: u32::try_from(i).expect("small index"),
                submit_at,
                service,
                station,
            })
            .collect();
        let observed = run_station_program(&jobs, &resizes);
        assert_pinned(STATION_PINS, &(&jobs, &resizes, &observed));
    }
}

/// A fixed mixed workload: closures, timers, and stations interleaved at
/// the same instants, with the complete firing transcript pinned.
#[test]
fn mixed_kernel_transcripts_match() {
    let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Sim::new(99);
    let station = Station::new("mix", 2);
    {
        let log = Rc::clone(&log);
        let mut left = 5u32;
        every(&mut sim, SimTime::ZERO, SimDuration::from_nanos(3 * TICK), move |sim| {
            log.borrow_mut().push((sim.now().as_nanos(), 1000));
            left -= 1;
            left > 0
        });
    }
    for i in 0..10u32 {
        let log = Rc::clone(&log);
        let station = Rc::clone(&station);
        sim.schedule(SimDuration::from_nanos(u64::from(i % 3) * TICK), move |sim| {
            let log = Rc::clone(&log);
            Station::submit(&station, sim, SimDuration::from_nanos(2 * TICK), move |sim| {
                log.borrow_mut().push((sim.now().as_nanos(), i));
            });
        });
    }
    sim.run();
    let events = Rc::try_unwrap(log).expect("run complete").into_inner();
    let transcript: Transcript = (events, sim.now().as_nanos(), sim.events_executed());
    assert_eq!(digest(&transcript), MIXED_PIN, "transcript: {transcript:?}");
}
