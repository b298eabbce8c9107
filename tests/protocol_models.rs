//! Exhaustive-interleaving models of two parts of `GrowMap`'s migration
//! protocol (DESIGN.md §12, §15), explored over every schedule of two or
//! three threads on an x86-TSO memory:
//!
//! * **writer exclusion** — a writer's busy flag and the table's growing
//!   flag against the growth leader, whose `membarrier` is a full fence
//!   injected into every other thread at whatever step it has reached;
//! * **the placement gate** — a late block owner against the rescuer that
//!   completes its block and finalizes, across two consecutive migrations.
//!
//! Each model is checked twice: as the code does it, where every schedule
//! must end well, and with one seeded mutation — the leader's barrier
//! dropped, the lease checked before the gate's counter is raised — where
//! some schedule must end badly.  A model that cannot fail proves nothing.
//!
//! The machine: each thread runs a small program over shared bytes.  A
//! plain store goes into the thread's FIFO store buffer, from which it
//! reaches memory at any later step; a load reads the thread's newest
//! buffered store to the location, else memory.  Locked instructions and
//! fences wait for the buffer to drain.  Spin loops are blocking loads: a
//! spin that reads the wrong value changes nothing, so only its final,
//! successful read is a step.  Explored depth-first with a visited set;
//! std only.

use std::collections::HashSet;

/// One instruction of a modelled thread.  Locations index the shared
/// memory, registers the thread's own eight.
#[derive(Debug, Clone, Copy)]
enum Ins {
    /// Plain store, into the store buffer.
    Store(usize, u8),
    /// Plain load into a register.
    Load(usize, usize),
    /// Locked wrapping add (`lock xadd`): drains the buffer first.
    Add(usize, u8),
    /// Locked compare-exchange `(location, expected, new)`.
    Cas(usize, u8, u8),
    /// `mfence`: waits for the buffer to drain.
    Fence,
    /// `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`: a full barrier in
    /// the caller, and every other thread's buffer drained at this step.
    HeavyBarrier,
    /// Spin until a load of the location reads the value.
    Await(usize, u8),
    /// Continue at the target unless the register holds the value.
    JumpUnless(usize, u8, usize),
    /// Continue at the target.
    Jump(usize),
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

/// Run every schedule of `programs` from zeroed memory of `locations`
/// bytes.  Returns the distinct outcomes, or the first schedule (its steps,
/// as `(thread, instruction or flush)`) whose outcome `check` rejects or
/// that deadlocks.
fn explore(
    programs: &[Vec<Ins>],
    locations: usize,
    check: impl Fn(&Outcome) -> bool,
) -> Result<HashSet<Outcome>, Vec<String>> {
    let start = State {
        memory: vec![0; locations],
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
            Ins::JumpUnless(reg, value, target) => {
                if me.regs[reg] != value {
                    me.pc = target;
                }
                true
            }
            Ins::Jump(target) => {
                me.pc = target;
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
/// and `BusyGuard`).
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
    let outcomes = explore(&programs, 4, copy_is_final).unwrap_or_else(|trace| {
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
    let trace = explore(&programs, 4, copy_is_final)
        .expect_err("a busy flag still in its store buffer must be missed");
    assert!(
        trace.last().unwrap().starts_with("bad outcome"),
        "{trace:?}"
    );
}

// ---------------------------------------------------------------------
// The placement gate
// ---------------------------------------------------------------------

const LEASE: usize = 0; // 0: CLAIMED, 1: DONE
const PLACING: usize = 1;
const GENERATION: usize = 2;
/// The two cells of migration 1's target that the block's two chunks
/// place (0: empty, 1: the element, 2: its tombstone).
const TARGET: [usize; 2] = [3, 4];
const CLAIMED: u8 = 0;
const DONE: u8 = 1;
/// `fetch_sub(1)`.
const MINUS_ONE: u8 = u8::MAX;

/// One copy of the block, from instruction 0: per chunk, enter the gate
/// (raise the in-flight count, *then* check the lease), place the chunk
/// with a plain store and leave the gate; at a lease that is no longer
/// `CLAIMED`, leave the gate and stop (`MigrationJob::enter_placement`).
/// `lease_first` is the mutation that checks the lease before raising the
/// count.  Ends at instruction `8 × chunks`.
fn copy_of_the_block(lease_first: bool) -> Vec<Ins> {
    let end = 8 * TARGET.len();
    let mut program = Vec::new();
    for &cell in &TARGET {
        let base = program.len();
        let mut enter = [Ins::Add(PLACING, 1), Ins::Load(LEASE, 0)];
        if lease_first {
            enter.reverse();
        }
        program.extend(enter);
        program.extend([
            Ins::JumpUnless(0, CLAIMED, base + 6),
            Ins::Store(cell, 1),
            Ins::Add(PLACING, MINUS_ONE),
            Ins::Jump(base + 8),
            Ins::Add(PLACING, MINUS_ONE),
            Ins::Jump(end),
        ]);
    }
    program
}

/// Three threads:
/// * the block's owner, late: it copies the block, but its lease may have
///   been completed by the rescuer at any point (it never completes it);
/// * the rescuer: re-copies the block, completes the lease (CLAIMED →
///   DONE), then finalizes — a `SeqCst` fence, waiting for the gate to
///   drain — and publishes migration 1's target;
/// * a writer: once the target is published, erases the element of the
///   first cell (a locked CAS to a tombstone), then leads migration 2 and
///   copies both cells of the target with plain loads.
fn gate_programs(lease_first: bool) -> [Vec<Ins>; 3] {
    let owner = copy_of_the_block(lease_first);
    let mut rescuer = copy_of_the_block(lease_first);
    rescuer.extend([
        Ins::Cas(LEASE, CLAIMED, DONE),
        Ins::Fence,
        Ins::Await(PLACING, 0),
        Ins::Add(GENERATION, 1),
    ]);
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
    memory[TARGET[0]] == 2 && regs[2][0] == 2 && regs[2][1] == 1
}

#[test]
fn placement_gate_holds_in_every_schedule() {
    let outcomes = explore(&gate_programs(false), 5, no_store_after_publication)
        .unwrap_or_else(|trace| panic!("{}", trace.join("\n")));
    // Not vacuous: the owner both placed its whole block before the rescue
    // completed it, and found the lease gone.
    let leases: HashSet<u8> = outcomes.iter().map(|(_, regs)| regs[0][0]).collect();
    assert_eq!(leases, HashSet::from([CLAIMED, DONE]));
}

#[test]
fn placement_gate_fails_when_the_lease_is_checked_first() {
    let trace = explore(&gate_programs(true), 5, no_store_after_publication)
        .expect_err("a late owner's store must reach the published target");
    assert!(
        trace.last().unwrap().starts_with("bad outcome"),
        "{trace:?}"
    );
}
