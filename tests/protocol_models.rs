//! Exhaustive-interleaving models of parts of `GrowMap`'s migration
//! protocol (DESIGN.md §12, §13, §15), explored over every schedule of two
//! or three threads on an x86-TSO memory:
//!
//! * **writer exclusion** — a writer's busy flag and the table's growing
//!   flag against the growth leader, whose `membarrier` is a full fence
//!   injected into every other thread at whatever step it has reached;
//! * **the placement gate** — a late owner of the second of two block
//!   leases, each with its own gate counter, against the rescuer that
//!   completes both leases and finalizes, across two consecutive
//!   migrations;
//! * **the flipping freeze** (DESIGN.md §15) — two value-word updaters of an
//!   inline value against the marking freeze that flips the value word,
//!   and a find against it;
//! * **the clearing hand-off** (DESIGN.md §13) — the elector that installs
//!   an uncleared target, a writer that clears its slices under the
//!   clearing lock and leads with the last, and a clearer killed inside a
//!   slice, which then waits for the job and reads the target;
//! * **the sole writer's revocation** (DESIGN.md §8) — a lone handle's
//!   update with plain loads and a plain store, its closure run with the
//!   busy flag lowered, against a second handle's registration, which
//!   lowers the sole bit, runs the heavy barrier, waits for the busy flag,
//!   updates the same cell with the locked CAS and drops again;
//! * **the lone leader** (DESIGN.md §15) — a leader that is its map's only
//!   handle and skips the heavy barrier, against a second handle that
//!   registers, before or after the leader has counted the handles, and
//!   then writes.
//!
//! Each model is checked as the code does it, where every schedule must
//! end well, and with seeded mutations — the leader's barrier dropped, the
//! lease checked before the gate's counter is raised, a finalizer that
//! drains the first lease's counter only, a freeze that does not flip or
//! whose flip the update function computes, an updater or a find short of
//! one of its loads, a clearing that counts claimed slices instead of
//! cleared ones, a registration without its barrier, a sole writer that
//! does not check its cell again after its closure, a lone leader that
//! counts the handles before it raises the growing flag — where some
//! schedule must end badly.
//! A model that cannot fail proves nothing.
//!
//! The machine: each thread runs a small program over shared bytes.  A
//! plain store goes into the thread's FIFO store buffer, from which it
//! reaches memory at any later step; a load reads the thread's newest
//! buffered store to the location, else memory.  Locked instructions —
//! among them the two-location compare-exchange that stands for
//! `cmpxchg16b` on a cell's key and value words — and fences wait for the
//! buffer to drain.  Register arithmetic is a step of its own.  Spin loops
//! are blocking loads: a spin that reads the wrong value changes nothing,
//! so only its final, successful read is a step.  Explored depth-first
//! with a visited set; std only.

use std::collections::HashSet;

/// One instruction of a modelled thread.  Locations index the shared
/// memory, registers the thread's own eight.
#[derive(Debug, Clone, Copy)]
enum Ins {
    /// Plain store, into the store buffer.
    Store(usize, u8),
    /// Plain store of a register's value, into the store buffer.
    StoreReg(usize, usize),
    /// Plain load into a register.
    Load(usize, usize),
    /// Locked wrapping add (`lock xadd`): drains the buffer first.
    Add(usize, u8),
    /// Locked compare-exchange `(location, expected, new)`.
    Cas(usize, u8, u8),
    /// Locked compare-exchange of a location from the value in register
    /// `expected` to the one in register `new`; register `ok` gets 1 on
    /// success, else 0 (`lock cmpxchg`).
    CasReg {
        at: usize,
        expected: usize,
        new: usize,
        ok: usize,
    },
    /// Locked compare-exchange of two locations at once, registers as in
    /// `CasReg` (`lock cmpxchg16b` on a cell's key and value words).
    Cas2 {
        at: [usize; 2],
        expected: [usize; 2],
        new: [usize; 2],
        ok: usize,
    },
    /// `dst = src | bits`.
    Or(usize, usize, u8),
    /// `dst = src ^ bits`.
    Xor(usize, usize, u8),
    /// `dst = src + n`, wrapping.
    AddImm(usize, usize, u8),
    /// `mfence`: waits for the buffer to drain.
    Fence,
    /// `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`: a full barrier in
    /// the caller, and every other thread's buffer drained at this step.
    HeavyBarrier,
    /// Spin until a load of the location reads the value.
    Await(usize, u8),
    /// Spin until a load of the location reads other than the value.
    AwaitNot(usize, u8),
    /// Continue at the target unless the register holds the value.
    JumpUnless(usize, u8, usize),
    /// Continue at the target if `register & mask == value`:
    /// `(register, mask, value, target)`.
    JumpIf(usize, u8, u8, usize),
    /// Continue at the target.
    Jump(usize),
    /// Continue at the target unless the two registers hold the same value.
    JumpUnlessEqual(usize, usize, usize),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Thread {
    pc: usize,
    regs: [u8; 8],
    buffer: Vec<(usize, u8)>,
}

impl Thread {
    fn load(&self, memory: &[u8], location: usize) -> u8 {
        self.buffer
            .iter()
            .rev()
            .find(|&&(at, _)| at == location)
            .map_or(memory[location], |&(_, value)| value)
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    memory: Vec<u8>,
    threads: Vec<Thread>,
}

/// A finished schedule: final memory, and each thread's registers.
type Outcome = (Vec<u8>, Vec<[u8; 8]>);

/// Run every schedule of `programs` from the memory `initial`.  Returns
/// the distinct outcomes, or the first schedule (its steps, as `(thread,
/// instruction or flush)`) whose outcome `check` rejects or that
/// deadlocks.
fn explore(
    programs: &[Vec<Ins>],
    initial: &[u8],
    check: impl Fn(&Outcome) -> bool,
) -> Result<HashSet<Outcome>, Vec<String>> {
    let start = State {
        memory: initial.to_vec(),
        threads: programs
            .iter()
            .map(|_| Thread {
                pc: 0,
                regs: [0; 8],
                buffer: Vec::new(),
            })
            .collect(),
    };
    let mut outcomes = HashSet::new();
    let mut visited = HashSet::new();
    let mut trace = Vec::new();
    dfs(
        programs,
        start,
        &check,
        &mut visited,
        &mut outcomes,
        &mut trace,
    )?;
    Ok(outcomes)
}

fn dfs(
    programs: &[Vec<Ins>],
    state: State,
    check: &impl Fn(&Outcome) -> bool,
    visited: &mut HashSet<State>,
    outcomes: &mut HashSet<Outcome>,
    trace: &mut Vec<String>,
) -> Result<(), Vec<String>> {
    if !visited.insert(state.clone()) {
        return Ok(());
    }
    let mut moved = false;
    for t in 0..programs.len() {
        // The oldest buffered store reaches memory.
        if !state.threads[t].buffer.is_empty() {
            let mut next = state.clone();
            let (location, value) = next.threads[t].buffer.remove(0);
            next.memory[location] = value;
            moved = true;
            trace.push(format!("T{t} flush [{location}]={value}"));
            dfs(programs, next, check, visited, outcomes, trace)?;
            trace.pop();
        }
        let thread = &state.threads[t];
        let Some(&ins) = programs[t].get(thread.pc) else {
            continue;
        };
        let drained = thread.buffer.is_empty();
        let mut next = state.clone();
        let me = &mut next.threads[t];
        me.pc += 1;
        let enabled = match ins {
            Ins::Store(location, value) => {
                me.buffer.push((location, value));
                true
            }
            Ins::StoreReg(location, reg) => {
                let value = me.regs[reg];
                me.buffer.push((location, value));
                true
            }
            Ins::Load(location, reg) => {
                me.regs[reg] = thread.load(&state.memory, location);
                true
            }
            Ins::Add(location, delta) => {
                next.memory[location] = next.memory[location].wrapping_add(delta);
                drained
            }
            Ins::Cas(location, expected, new) => {
                if next.memory[location] == expected {
                    next.memory[location] = new;
                }
                drained
            }
            Ins::CasReg {
                at,
                expected,
                new,
                ok,
            } => {
                let success = next.memory[at] == me.regs[expected];
                if success {
                    next.memory[at] = me.regs[new];
                }
                me.regs[ok] = u8::from(success);
                drained
            }
            Ins::Cas2 {
                at,
                expected,
                new,
                ok,
            } => {
                let success = at
                    .iter()
                    .zip(expected)
                    .all(|(&location, reg)| next.memory[location] == me.regs[reg]);
                if success {
                    for (&location, reg) in at.iter().zip(new) {
                        next.memory[location] = me.regs[reg];
                    }
                }
                me.regs[ok] = u8::from(success);
                drained
            }
            Ins::Or(dst, src, bits) => {
                me.regs[dst] = me.regs[src] | bits;
                true
            }
            Ins::Xor(dst, src, bits) => {
                me.regs[dst] = me.regs[src] ^ bits;
                true
            }
            Ins::AddImm(dst, src, n) => {
                me.regs[dst] = me.regs[src].wrapping_add(n);
                true
            }
            Ins::Fence => drained,
            Ins::HeavyBarrier => {
                if drained {
                    for other in 0..programs.len() {
                        for (location, value) in std::mem::take(&mut next.threads[other].buffer) {
                            next.memory[location] = value;
                        }
                    }
                }
                drained
            }
            Ins::Await(location, value) => thread.load(&state.memory, location) == value,
            Ins::AwaitNot(location, value) => thread.load(&state.memory, location) != value,
            Ins::JumpUnless(reg, value, target) => {
                if me.regs[reg] != value {
                    me.pc = target;
                }
                true
            }
            Ins::JumpIf(reg, mask, value, target) => {
                if me.regs[reg] & mask == value {
                    me.pc = target;
                }
                true
            }
            Ins::Jump(target) => {
                me.pc = target;
                true
            }
            Ins::JumpUnlessEqual(a, b, target) => {
                if me.regs[a] != me.regs[b] {
                    me.pc = target;
                }
                true
            }
        };
        if enabled {
            moved = true;
            trace.push(format!("T{t} {ins:?}"));
            dfs(programs, next, check, visited, outcomes, trace)?;
            trace.pop();
        }
    }
    if !moved {
        let finished = state
            .threads
            .iter()
            .zip(programs)
            .all(|(thread, program)| thread.pc == program.len());
        let outcome = (
            state.memory.clone(),
            state.threads.iter().map(|t| t.regs).collect(),
        );
        if !finished {
            trace.push("deadlock".into());
            return Err(trace.clone());
        }
        if !check(&outcome) {
            trace.push(format!("bad outcome {outcome:?}"));
            return Err(trace.clone());
        }
        outcomes.insert(outcome);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Writer exclusion
// ---------------------------------------------------------------------

const GROWING: usize = 0;
const CELL: usize = 1;
const BUSY: [usize; 2] = [2, 3];

/// A write: raise the busy flag, (compiler fence,) check the growing flag
/// — in the version word the borrow loads anyway — and either write the
/// source cell with the operations' locked CAS or turn away to wait for the
/// migration; the flag is lowered either way (`GrowMapHandle::enter_write`
/// and `WriteGuard`).
fn writer(busy: usize) -> Vec<Ins> {
    vec![
        Ins::Store(busy, 1),
        Ins::Load(GROWING, 0),
        Ins::JumpUnless(0, 0, 4),
        Ins::Add(CELL, 1),
        Ins::Store(busy, 0),
    ]
}

/// The leader (`GrowProtocol::quiesce_writers` of `GrowMap`, then the
/// copy): raise the growing flag, the heavy barrier, wait for both busy
/// flags to read 0, copy the cell with a plain load into register 0.
fn leader(barrier: bool) -> Vec<Ins> {
    let mut program = vec![Ins::Add(GROWING, 1)];
    if barrier {
        program.push(Ins::HeavyBarrier);
    }
    program.extend([
        Ins::Await(BUSY[0], 0),
        Ins::Await(BUSY[1], 0),
        Ins::Load(CELL, 0),
    ]);
    program
}

/// No write lands in the source after the copy read it: the copied value
/// is the cell's final one.
fn copy_is_final(outcome: &Outcome) -> bool {
    let (memory, regs) = outcome;
    memory[CELL] == regs[2][0]
}

#[test]
fn writer_exclusion_holds_in_every_schedule() {
    let programs = [writer(BUSY[0]), writer(BUSY[1]), leader(true)];
    let outcomes = explore(&programs, &[0; 4], copy_is_final).unwrap_or_else(|trace| {
        panic!("{}", trace.join("\n"));
    });
    // Not vacuous: each number of writes, from both turned away to both
    // written before the copy, happens in some schedule.
    let writes: HashSet<u8> = outcomes.iter().map(|(memory, _)| memory[CELL]).collect();
    assert_eq!(writes, HashSet::from([0, 1, 2]));
}

#[test]
fn writer_exclusion_fails_without_the_heavy_barrier() {
    let programs = [writer(BUSY[0]), writer(BUSY[1]), leader(false)];
    let trace = explore(&programs, &[0; 4], copy_is_final)
        .expect_err("a busy flag still in its store buffer must be missed");
    assert!(
        trace.last().unwrap().starts_with("bad outcome"),
        "{trace:?}"
    );
}

// ---------------------------------------------------------------------
// The placement gate
// ---------------------------------------------------------------------

/// Two block leases, each with its own gate counter (`LeaseSlot`).
const LEASE: [usize; 2] = [0, 1]; // 0: CLAIMED, 1: DONE
const PLACING: [usize; 2] = [2, 3];
const GENERATION: usize = 4;
/// The two cells of migration 1's target that block 1's two chunks place
/// (0: empty, 1: the element, 2: its tombstone).
const TARGET: [usize; 2] = [5, 6];
/// The cell of migration 1's target that block 0's one chunk places.
const BLOCK_0_CELL: usize = 7;
const CLAIMED: u8 = 0;
const DONE: u8 = 1;
/// `fetch_sub(1)`.
const MINUS_ONE: u8 = u8::MAX;

/// One copy of block `lease`, whose chunks place `cells`, as instructions
/// `origin..`: per chunk, enter the lease's gate (raise its in-flight
/// count, *then* check the lease), place the chunk with a plain store and
/// leave the gate; at a lease that is no longer `CLAIMED`, leave the gate
/// and stop (`MigrationJob::enter_placement`).  `lease_first` is the
/// mutation that checks the lease before raising the count.
fn copy_of_the_block(lease: usize, cells: &[usize], lease_first: bool, origin: usize) -> Vec<Ins> {
    let end = origin + 8 * cells.len();
    let mut program = Vec::new();
    for &cell in cells {
        let base = origin + program.len();
        let mut enter = [Ins::Add(PLACING[lease], 1), Ins::Load(LEASE[lease], 0)];
        if lease_first {
            enter.reverse();
        }
        program.extend(enter);
        program.extend([
            Ins::JumpUnless(0, CLAIMED, base + 6),
            Ins::Store(cell, 1),
            Ins::Add(PLACING[lease], MINUS_ONE),
            Ins::Jump(base + 8),
            Ins::Add(PLACING[lease], MINUS_ONE),
            Ins::Jump(end),
        ]);
    }
    program
}

/// Three threads:
/// * block 1's owner, late: it copies the block, but its lease may have
///   been completed by the rescuer at any point (it never completes it);
/// * the rescuer: copies block 0 and completes its lease, re-copies block
///   1 and completes that lease (CLAIMED → DONE), then finalizes — a
///   `SeqCst` fence, waiting for the gate counters of the leases in
///   `drained` to read 0 — and publishes migration 1's target;
/// * a writer: once the target is published, erases the element of block
///   1's first cell (a locked CAS to a tombstone), then leads migration 2
///   and copies both of block 1's cells of the target with plain loads.
///
/// The code drains both leases; `drained` short of lease 1 is the mutation
/// of a finalizer that misses the late owner's counter.
fn gate_programs(lease_first: bool, drained: &[usize]) -> [Vec<Ins>; 3] {
    let owner = copy_of_the_block(1, &TARGET, lease_first, 0);
    let mut rescuer = copy_of_the_block(0, &[BLOCK_0_CELL], lease_first, 0);
    rescuer.push(Ins::Cas(LEASE[0], CLAIMED, DONE));
    let origin = rescuer.len();
    rescuer.extend(copy_of_the_block(1, &TARGET, lease_first, origin));
    rescuer.extend([Ins::Cas(LEASE[1], CLAIMED, DONE), Ins::Fence]);
    rescuer.extend(drained.iter().map(|&lease| Ins::Await(PLACING[lease], 0)));
    rescuer.push(Ins::Add(GENERATION, 1));
    let writer = vec![
        Ins::Await(GENERATION, 1),
        Ins::Cas(TARGET[0], 1, 2),
        Ins::Load(TARGET[0], 0),
        Ins::Load(TARGET[1], 1),
        Ins::Add(GENERATION, 1),
    ];
    [owner, rescuer, writer]
}

/// No placement store lands in a published target: the erase stands, and
/// migration 2 copied the target as migration 1 left it plus the erase.
fn no_store_after_publication(outcome: &Outcome) -> bool {
    let (memory, regs) = outcome;
    memory[TARGET[0]] == 2 && regs[2][0] == 2 && regs[2][1] == 1 && memory[BLOCK_0_CELL] == 1
}

#[test]
fn placement_gate_holds_in_every_schedule() {
    let outcomes = explore(
        &gate_programs(false, &[0, 1]),
        &[0; 8],
        no_store_after_publication,
    )
    .unwrap_or_else(|trace| panic!("{}", trace.join("\n")));
    // Not vacuous: the owner both placed its whole block before the rescue
    // completed it, and found the lease gone.
    let leases: HashSet<u8> = outcomes.iter().map(|(_, regs)| regs[0][0]).collect();
    assert_eq!(leases, HashSet::from([CLAIMED, DONE]));
}

#[test]
fn placement_gate_fails_when_the_lease_is_checked_first() {
    let trace = explore(
        &gate_programs(true, &[0, 1]),
        &[0; 8],
        no_store_after_publication,
    )
    .expect_err("a late owner's store must reach the published target");
    assert!(
        trace.last().unwrap().starts_with("bad outcome"),
        "{trace:?}"
    );
}

#[test]
fn placement_gate_fails_when_the_finalizer_drains_one_lease() {
    let trace = explore(
        &gate_programs(false, &[0]),
        &[0; 8],
        no_store_after_publication,
    )
    .expect_err("the late owner on lease 1 must go unnoticed");
    assert!(
        trace.last().unwrap().starts_with("bad outcome"),
        "{trace:?}"
    );
}

// ---------------------------------------------------------------------
// The flipping freeze
// ---------------------------------------------------------------------

/// The cell: its key word and its value word.
const KEY: usize = 0;
const VALUE: usize = 1;
/// The cell's key, unmarked, and the two words' bits the freeze changes:
/// the mark in the key (`MARK_BIT`), and the flip XOR-ed into the value
/// (`frozen_flip()`, random in the code; any word here that the updaters
/// do not compute).
const THE_KEY: u8 = 7;
const MARK: u8 = 0x80;
const FLIP: u8 = 0x5a;

/// `Cell::mark_and_flip_for_migration` as a marking copy calls it: read
/// the pair into registers 0 and 1, then one two-word CAS to the marked
/// key and the value XOR `flip`, retried on failure.  Register 1 ends as
/// the value the freeze took effect on: what the copy places.  A `flip`
/// of 0 is the mutation that only marks, as the `fetch_or` freeze does.
fn freezer(flip: u8) -> Vec<Ins> {
    vec![
        Ins::Load(KEY, 0),
        Ins::Load(VALUE, 1),
        Ins::Or(2, 0, MARK),
        Ins::Xor(3, 1, flip),
        Ins::Cas2 {
            at: [KEY, VALUE],
            expected: [0, 1],
            new: [2, 3],
            ok: 4,
        },
        Ins::JumpUnless(4, 1, 0),
    ]
}

/// The update function of the modelled updaters.
#[derive(Clone, Copy)]
enum Update {
    /// `v + 1`, as `aggregate_zipf` counts.
    Increment,
    /// `v ^ bits`: with bits all ones, a toggle.
    Xor(u8),
}

impl Update {
    fn derive(self) -> Ins {
        match self {
            Update::Increment => Ins::AddImm(3, 1, 1),
            Update::Xor(bits) => Ins::Xor(3, 1, bits),
        }
    }

    /// The value `n` successful updates leave from 0.
    fn after(self, n: u8) -> u8 {
        (0..n).fold(0, |v, _| match self {
            Update::Increment => v + 1,
            Update::Xor(bits) => v ^ bits,
        })
    }
}

/// One update by `GenericArray::update_cell` on an inline value: load
/// the key (marked: `Migrating`, stop), load the value, load the key
/// again (changed: re-read), derive, then CAS the value word alone; a
/// failed CAS re-reads.  Register 4 ends 1 if the update reported success.
/// `second_key_load` false is the mutation without the key's re-load.
fn value_updater(update: Update, second_key_load: bool) -> Vec<Ins> {
    let end = if second_key_load { 8 } else { 6 };
    let mut program = vec![
        Ins::Load(KEY, 0),
        Ins::JumpIf(0, MARK, MARK, end),
        Ins::Load(VALUE, 1),
    ];
    if second_key_load {
        program.extend([Ins::Load(KEY, 2), Ins::JumpUnless(2, THE_KEY, 0)]);
    }
    program.extend([
        update.derive(),
        Ins::CasReg {
            at: VALUE,
            expected: 1,
            new: 3,
            ok: 4,
        },
        Ins::JumpUnless(4, 1, 0),
    ]);
    assert_eq!(program.len(), end);
    program
}

/// Two updaters and the freezer, on the cell `(THE_KEY, 0)`.  Returns the
/// outcomes, or a schedule in which an update that reported success is
/// not in the copied value: one that landed in the frozen cell.
fn explore_updates(
    update: Update,
    second_key_load: bool,
    flip: u8,
) -> Result<HashSet<Outcome>, Vec<String>> {
    let updater = value_updater(update, second_key_load);
    explore(
        &[updater.clone(), updater, freezer(flip)],
        &[THE_KEY, 0],
        |(_, regs)| regs[2][1] == update.after(regs[0][4] + regs[1][4]),
    )
}

#[test]
fn value_updates_meet_the_flipping_freeze_in_every_schedule() {
    for update in [Update::Increment, Update::Xor(0xff)] {
        let outcomes = explore_updates(update, true, FLIP)
            .unwrap_or_else(|trace| panic!("{}", trace.join("\n")));
        // Not vacuous: the freeze came before both updates, between them
        // and after both.
        let copied: HashSet<u8> = outcomes.iter().map(|(_, regs)| regs[2][1]).collect();
        let expected: HashSet<u8> = (0..3).map(|n| update.after(n)).collect();
        assert_eq!(copied, expected);
    }
}

fn assert_an_update_is_lost(explored: Result<HashSet<Outcome>, Vec<String>>) {
    let trace = explored.expect_err("an update must land in the frozen cell");
    assert!(
        trace.last().unwrap().starts_with("bad outcome"),
        "{trace:?}"
    );
}

#[test]
fn value_updates_are_lost_to_a_freeze_that_does_not_flip() {
    assert_an_update_is_lost(explore_updates(Update::Increment, true, 0));
}

#[test]
fn value_updates_are_lost_without_the_second_key_load() {
    assert_an_update_is_lost(explore_updates(Update::Increment, false, FLIP));
}

/// Why `frozen_flip()` is random: an update function that computes the
/// flip — here XOR with it — stores `v ^ flip` between an updater's read
/// of `v` and the freeze, whose flip then restores `v`, and that
/// updater's CAS succeeds in the frozen cell.
#[test]
fn value_updates_are_lost_to_a_flip_the_update_computes() {
    assert_an_update_is_lost(explore_updates(Update::Xor(FLIP), true, FLIP));
}

/// The value the finds read.
const FOUND: u8 = 5;

/// How a find reads a matched inline value.
#[derive(Clone, Copy)]
enum FindRead {
    /// As `GenericArray::find` does: key, value, key again, and if that is
    /// marked, the value loaded again and unflipped (`Cell::unflipped_value`).
    KeyValueKey,
    /// Mutation: unflips the value it already read when the second key is
    /// marked, instead of loading it again.
    NoReload,
    /// Mutation: tests the first key's mark only.
    FirstKeyOnly,
}

/// A find of the cell's key; register 1 ends as the value it returns.
fn finder(read: FindRead) -> Vec<Ins> {
    match read {
        FindRead::KeyValueKey => vec![
            Ins::Load(KEY, 0),
            Ins::Load(VALUE, 1),
            Ins::Load(KEY, 2),
            Ins::JumpIf(2, MARK, 0, 6),
            Ins::Load(VALUE, 1),
            Ins::Xor(1, 1, FLIP),
        ],
        FindRead::NoReload => vec![
            Ins::Load(KEY, 0),
            Ins::Load(VALUE, 1),
            Ins::Load(KEY, 2),
            Ins::JumpIf(2, MARK, 0, 5),
            Ins::Xor(1, 1, FLIP),
        ],
        FindRead::FirstKeyOnly => vec![
            Ins::Load(KEY, 0),
            Ins::Load(VALUE, 1),
            Ins::JumpIf(0, MARK, 0, 4),
            Ins::Xor(1, 1, FLIP),
        ],
    }
}

/// A find never returns the flipped word, nor the unflipped form of a
/// word read before the freeze.
fn find_reads_the_value(outcome: &Outcome) -> bool {
    outcome.1[0][1] == FOUND
}

fn explore_find(read: FindRead) -> Result<HashSet<Outcome>, Vec<String>> {
    explore(
        &[finder(read), freezer(FLIP)],
        &[THE_KEY, FOUND],
        find_reads_the_value,
    )
}

#[test]
fn finds_never_return_a_flipped_word() {
    let outcomes =
        explore_find(FindRead::KeyValueKey).unwrap_or_else(|trace| panic!("{}", trace.join("\n")));
    // Not vacuous: the find's last key load came before the freeze and
    // after it, and so did its first.
    for reg in [0, 2] {
        let marks: HashSet<u8> = outcomes
            .iter()
            .map(|(_, regs)| regs[0][reg] & MARK)
            .collect();
        assert_eq!(marks, HashSet::from([0, MARK]), "register {reg}");
    }
}

#[test]
fn finds_return_a_wrong_word_without_the_value_reload() {
    for read in [FindRead::NoReload, FindRead::FirstKeyOnly] {
        let trace = explore_find(read).expect_err("a freeze between the loads must be missed");
        assert!(
            trace.last().unwrap().starts_with("bad outcome"),
            "{trace:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The clearing hand-off
// ---------------------------------------------------------------------

/// The clearing lock (`Coordinator::clearing`'s mutex): 1 while held.
const LOCK: usize = 0;
/// The clearing record: 0 before the elector installs it, 1 while it waits
/// for its slices, 2 once the last clearer took it out.
const RECORD: usize = 1;
/// The record's count of cleared slices, the next one to clear.
const CLEARED: usize = 2;
/// A count of slices raised when a clearer takes one, before clearing it:
/// what the mutation counts.
const TAKEN: usize = 3;
/// The target's two slices: 1 while they hold what the allocator left.
const SLICE: [usize; 2] = [4, 5];
/// The clearing bit of the version word.
const CLEARING_BIT: usize = 6;
/// 1 once the elector has installed the record (never lowered): a writer
/// that starts after it sees the clearing bit.
const INSTALLED: usize = 7;
/// The migration job: 1 once installed.
const JOB: usize = 8;
/// Threads that led the migration.
const LEADERS: usize = 9;

/// `GrowProtocol::clear_next_slice` in a loop, as a writer that waits for
/// the preparation runs it, placed at `base`: try the lock (register 6
/// holds 1, register 7 stays 0); leave when the record is not waiting; read
/// the slice to clear from `count`; clear it; count it.  The clearer of the
/// last slice takes the record out, lowers the bit, unlocks and leads: it
/// installs the job.  `killed` unwinds inside the slice, before it is
/// cleared, which unlocks.  `count` of [`TAKEN`] is the mutation that
/// counts the slice when it is taken.
fn slice_clearer(base: usize, count: usize, killed: bool) -> Vec<Ins> {
    const TO_EXIT: usize = usize::MAX;
    const TO_LOOP: usize = usize::MAX - 1;
    const TO_END: usize = usize::MAX - 2;
    let mut program = vec![
        Ins::CasReg {
            at: LOCK,
            expected: 7,
            new: 6,
            ok: 0,
        },
        Ins::JumpUnless(0, 1, base),
        Ins::Load(RECORD, 1),
        Ins::JumpUnless(1, 1, TO_EXIT),
        Ins::Load(count, 2),
        Ins::JumpUnless(2, 0, 0), // to slice 1, set below
    ];
    for slice in 0..2u8 {
        if slice == 1 {
            program[5] = Ins::JumpUnless(2, 0, base + program.len());
        }
        if count == TAKEN {
            program.push(Ins::Store(TAKEN, slice + 1));
        }
        if killed {
            program.push(Ins::Jump(TO_EXIT));
            continue;
        }
        program.push(Ins::Store(SLICE[slice as usize], 0));
        program.push(Ins::Store(CLEARED, slice + 1));
        if slice == 0 {
            program.push(Ins::Jump(TO_LOOP));
        } else {
            program.extend([
                Ins::Store(RECORD, 2),
                Ins::Add(CLEARING_BIT, 255),
                Ins::Cas(LOCK, 1, 0),
                Ins::Add(LEADERS, 1),
                Ins::Store(JOB, 1),
                Ins::Jump(TO_END),
            ]);
        }
    }
    let loop_at = base + program.len();
    program.extend([Ins::Cas(LOCK, 1, 0), Ins::Jump(base)]);
    let exit_at = base + program.len();
    program.push(Ins::Cas(LOCK, 1, 0));
    let end_at = base + program.len();
    for ins in &mut program {
        match ins {
            Ins::Jump(target) | Ins::JumpUnless(_, _, target) => {
                *target = match *target {
                    TO_EXIT => exit_at,
                    TO_LOOP => loop_at,
                    TO_END => end_at,
                    other => other,
                }
            }
            _ => {}
        }
    }
    program
}

/// Three threads over a target of two slices, counting them by `count`:
///
/// * the elector: under the lock, installs the record and raises the bit,
///   then clears like a writer whose source is full;
/// * a writer that saw the bit: clears until the record is gone;
/// * a clearer killed inside a slice, which then waits for the job and
///   reads both slices into registers 4 and 5 — as a copier would read
///   the target.
fn clearing_programs(count: usize) -> [Vec<Ins>; 3] {
    let mut elector = vec![
        Ins::AddImm(6, 7, 1),
        Ins::CasReg {
            at: LOCK,
            expected: 7,
            new: 6,
            ok: 0,
        },
        Ins::JumpUnless(0, 1, 1),
        Ins::Store(RECORD, 1),
        Ins::Add(CLEARING_BIT, 1),
        Ins::Store(INSTALLED, 1),
        Ins::Cas(LOCK, 1, 0),
    ];
    elector.extend(slice_clearer(elector.len(), count, false));
    let arrival = [Ins::AddImm(6, 7, 1), Ins::Await(INSTALLED, 1)];
    let mut writer = arrival.to_vec();
    writer.extend(slice_clearer(writer.len(), count, false));
    let mut killed = arrival.to_vec();
    killed.extend(slice_clearer(killed.len(), count, true));
    killed.extend([
        Ins::Await(JOB, 1),
        Ins::Load(SLICE[0], 4),
        Ins::Load(SLICE[1], 5),
    ]);
    [elector, writer, killed]
}

/// One leader installed the job, the bit is down, and the target was clear
/// in memory and to the thread that read it after the job.
fn cleared_before_the_job(outcome: &Outcome) -> bool {
    let (memory, regs) = outcome;
    memory[LEADERS] == 1
        && memory[JOB] == 1
        && memory[CLEARING_BIT] == 0
        && memory[LOCK] == 0
        && SLICE.iter().all(|&slice| memory[slice] == 0)
        && regs[2][4] == 0
        && regs[2][5] == 0
}

#[test]
fn clearing_hands_off_to_one_leader_in_every_schedule() {
    let mut initial = [0; 10];
    initial[SLICE[0]] = 1;
    initial[SLICE[1]] = 1;
    let outcomes = explore(
        &clearing_programs(CLEARED),
        &initial,
        cleared_before_the_job,
    )
    .unwrap_or_else(|trace| panic!("{}", trace.join("\n")));
    // Not vacuous: the elector led in some schedules and the writer in
    // others (register 2 ends 1 in the thread that cleared the last slice).
    let led: HashSet<(bool, bool)> = outcomes
        .iter()
        .map(|(_, regs)| (regs[0][2] == 1, regs[1][2] == 1))
        .collect();
    assert_eq!(led, HashSet::from([(true, false), (false, true)]));
}

#[test]
fn clearing_fails_when_it_counts_taken_slices() {
    let mut initial = [0; 10];
    initial[SLICE[0]] = 1;
    initial[SLICE[1]] = 1;
    let trace = explore(&clearing_programs(TAKEN), &initial, cleared_before_the_job)
        .expect_err("the killed clearer's slice must reach the job uncleared");
    assert!(
        trace.last().unwrap().starts_with("bad outcome"),
        "{trace:?}"
    );
}

// ---------------------------------------------------------------------
// The sole writer's revocation
// ---------------------------------------------------------------------

/// The sole bit of the version word: 1 while raised.
const SOLE_BIT: usize = 0;
/// The value word of the cell both handles update.
const COUNT: usize = 1;
/// The sole handle's busy flag: 0 idle, 1 busy, 2 busy on the locked path.
const SOLE_BUSY: usize = 2;

/// The lone handle's `insert_or_update(+1)` of an existing key
/// (`GenericArray::update_cell`): raise the busy flag, load the version
/// word; with the sole bit, read the value, run the closure with the flag
/// lowered (`WriteGuard::call_unbusied`), raise it, load the word again and
/// then the cell, and store plainly if both are as before, else lower the
/// flag and enter again; without it, mark the flag locked and run the
/// locked CAS loop.  Register 5 ends 1 for a sole store, 2 for a locked
/// one.  `cell_recheck` false is the mutation that stores once the word
/// holds, without loading the cell again.
fn sole_updater(cell_recheck: bool) -> Vec<Ins> {
    let recheck = if cell_recheck { 2 } else { 0 };
    let revoked = 12 + recheck;
    let locked = revoked + 2;
    let end = locked + 6;
    let mut program = vec![
        Ins::Store(SOLE_BUSY, 1),
        Ins::Load(SOLE_BIT, 0),
        Ins::JumpUnless(0, 1, locked),
        Ins::Load(COUNT, 1),
        Ins::Store(SOLE_BUSY, 0),
        Ins::AddImm(3, 1, 1),
        Ins::Store(SOLE_BUSY, 1),
        Ins::Load(SOLE_BIT, 6),
        Ins::JumpUnless(6, 1, revoked),
    ];
    if cell_recheck {
        program.extend([Ins::Load(COUNT, 2), Ins::JumpUnlessEqual(1, 2, revoked)]);
    }
    program.extend([
        Ins::StoreReg(COUNT, 3),
        Ins::AddImm(5, 7, 1),
        Ins::Jump(end),
        // Revoked: enter again.
        Ins::Store(SOLE_BUSY, 0),
        Ins::Jump(0),
        // The locked path.
        Ins::Store(SOLE_BUSY, 2),
        Ins::Load(COUNT, 1),
        Ins::AddImm(3, 1, 1),
        Ins::CasReg {
            at: COUNT,
            expected: 1,
            new: 3,
            ok: 4,
        },
        Ins::JumpUnless(4, 1, locked + 1),
        Ins::AddImm(5, 7, 2),
        Ins::Store(SOLE_BUSY, 0),
    ]);
    assert_eq!(program.len(), end + 1);
    program
}

/// A second handle (`GenericInner::register`, one update, then
/// `GenericInner::unregister`): lower the sole bit, the heavy barrier,
/// wait until the sole handle's busy flag reads other than 1, update the
/// cell with the locked CAS loop, and raise the bit again as its drop
/// leaves one handle.  `barrier` false is the mutation without the barrier.
fn registrant(barrier: bool) -> Vec<Ins> {
    let mut program = vec![Ins::Add(SOLE_BIT, MINUS_ONE)];
    if barrier {
        program.push(Ins::HeavyBarrier);
    }
    let update = program.len() + 1;
    program.extend([
        Ins::AwaitNot(SOLE_BUSY, 1),
        Ins::Load(COUNT, 1),
        Ins::AddImm(3, 1, 1),
        Ins::CasReg {
            at: COUNT,
            expected: 1,
            new: 3,
            ok: 4,
        },
        Ins::JumpUnless(4, 1, update),
        Ins::Add(SOLE_BIT, 1),
    ]);
    program
}

/// The two handles' programs from a raised sole bit and a count of 0:
/// every schedule must end with both updates in the cell.
fn explore_revocation(barrier: bool, cell_recheck: bool) -> Result<HashSet<Outcome>, Vec<String>> {
    explore(
        &[sole_updater(cell_recheck), registrant(barrier)],
        &[1, 0, 0],
        |(memory, _)| memory[COUNT] == 2,
    )
}

#[test]
fn sole_writes_lose_no_update_to_a_registration_in_any_schedule() {
    let outcomes =
        explore_revocation(true, true).unwrap_or_else(|trace| panic!("{}", trace.join("\n")));
    // Not vacuous: the lone handle stored plainly in some schedules and
    // with the locked CAS in others.
    let paths: HashSet<u8> = outcomes.iter().map(|(_, regs)| regs[0][5]).collect();
    assert_eq!(paths, HashSet::from([1, 2]));
}

#[test]
fn sole_writes_lose_an_update_without_the_registrants_barrier() {
    let trace = explore_revocation(false, true)
        .expect_err("a busy flag still in its store buffer must be missed");
    assert!(
        trace.last().unwrap().starts_with("bad outcome"),
        "{trace:?}"
    );
}

/// A handle registered, updated and dropped while the sole writer ran its
/// closure with its flag lowered: the sole bit is raised again when the
/// writer loads it, and only the cell says that someone else wrote.
#[test]
fn sole_writes_lose_an_update_without_the_cell_recheck() {
    let trace = explore_revocation(true, false)
        .expect_err("an update made during the closure must be overwritten");
    assert!(
        trace.last().unwrap().starts_with("bad outcome"),
        "{trace:?}"
    );
}

// ---------------------------------------------------------------------
// The lone leader
// ---------------------------------------------------------------------

/// The writers lock (`GenericInner::writers`' mutex): 1 while held.
const WRITERS_LOCK: usize = 4;
/// The length of the list of writers' busy flags.
const WRITERS: usize = 5;

/// A leader that is its map's only handle (`GrowProtocol::quiesce_writers`
/// of `GrowMap`, then the copy): raise the growing flag, take the writers
/// lock, read how many handles there are, unlock; with one, itself, copy
/// the cell with a plain load into register 0 at once, else run the heavy
/// barrier and wait for the other handle's busy flag first.  Register 3
/// keeps the count.  `flag_first` false is the mutation that reads the
/// count before it raises the flag.
fn lone_leader(flag_first: bool) -> Vec<Ins> {
    let mut program = vec![Ins::AddImm(6, 7, 1)];
    if flag_first {
        program.push(Ins::Add(GROWING, 1));
    }
    let lock = program.len();
    program.extend([
        Ins::CasReg {
            at: WRITERS_LOCK,
            expected: 7,
            new: 6,
            ok: 5,
        },
        Ins::JumpUnless(5, 1, lock),
        Ins::Load(WRITERS, 3),
        Ins::Cas(WRITERS_LOCK, 1, 0),
    ]);
    if !flag_first {
        program.push(Ins::Add(GROWING, 1));
    }
    let copy = program.len() + 3;
    program.extend([
        Ins::JumpIf(3, u8::MAX, 1, copy),
        Ins::HeavyBarrier,
        Ins::Await(BUSY[1], 0),
        Ins::Load(CELL, 0),
    ]);
    program
}

/// A second handle (`GenericInner::register`, then one write): under the
/// writers lock, revoke the lone handle's sole mode — the heavy barrier;
/// its wait for the lone handle's busy flag is over at once, since a
/// leader's flag is down — and push its own flag; then write as
/// [`writer`] does, with the locked instruction of a map of two handles.
fn late_registrant() -> Vec<Ins> {
    let mut program = vec![
        Ins::AddImm(6, 7, 1),
        Ins::CasReg {
            at: WRITERS_LOCK,
            expected: 7,
            new: 6,
            ok: 5,
        },
        Ins::JumpUnless(5, 1, 1),
        Ins::HeavyBarrier,
        Ins::Load(WRITERS, 1),
        Ins::AddImm(1, 1, 1),
        Ins::StoreReg(WRITERS, 1),
        Ins::Cas(WRITERS_LOCK, 1, 0),
    ];
    let write = program.len();
    program.extend([
        Ins::Store(BUSY[1], 1),
        Ins::Load(GROWING, 0),
        Ins::JumpUnless(0, 0, write + 4),
        Ins::Add(CELL, 1),
        Ins::Store(BUSY[1], 0),
    ]);
    program
}

/// The leader and the registrant from a map of one handle, the leader's.
fn explore_lone_leader(flag_first: bool) -> Result<HashSet<Outcome>, Vec<String>> {
    let mut initial = [0; 6];
    initial[WRITERS] = 1;
    explore(
        &[lone_leader(flag_first), late_registrant()],
        &initial,
        |(memory, regs)| memory[CELL] == regs[0][0],
    )
}

#[test]
fn a_lone_leader_loses_no_write_to_a_late_registration_in_any_schedule() {
    let outcomes = explore_lone_leader(true).unwrap_or_else(|trace| panic!("{}", trace.join("\n")));
    // Not vacuous: the leader went without the barrier in some schedules,
    // and with it in others, where the write landed before the copy or
    // turned away.
    let seen: HashSet<(u8, u8)> = outcomes
        .iter()
        .map(|(memory, regs)| (regs[0][3], memory[CELL]))
        .collect();
    assert_eq!(seen, HashSet::from([(1, 0), (2, 0), (2, 1)]));
}

#[test]
fn a_lone_leader_loses_a_write_when_it_counts_before_the_raise() {
    let trace = explore_lone_leader(false)
        .expect_err("a handle registered between the count and the raise must be missed");
    assert!(
        trace.last().unwrap().starts_with("bad outcome"),
        "{trace:?}"
    );
}
