//! The Mini-C virtual machine: a deterministic, multithreaded bytecode
//! interpreter executing inside a simulated TEE.
//!
//! Determinism is the point: VM threads are scheduled round-robin with a
//! fixed instruction quantum, every instruction charges the
//! [`tee_sim::Machine`] a fixed base cost plus memory-model costs, and all
//! "time" the profilers observe derives from the machine's virtual clock.
//! Running the same program twice produces bit-identical logs.
//!
//! Two extension points let the profilers in:
//!
//! * [`ProfilerHooks`] — invoked by the `ProfEnter`/`ProfExit` instructions
//!   that TEE-Perf's instrumentation pass injects (stage 1+2 of the paper);
//! * [`InstrObserver`] — invoked after every instruction, which is how the
//!   sampling baseline (`perf-sim`) watches the instruction pointer.

use std::collections::VecDeque;
use std::sync::Arc;

use tee_sim::{Machine, Syscalls};

use crate::builtins::Builtin;
use crate::bytecode::{CmpOp, CompiledProgram, Instr};
use crate::error::McError;
use crate::lower::elem_code;
use crate::value::{Heap, Value};
use tee_sim::ENCLAVE_HEAP_BASE;

/// Hooks invoked by the injected profiling instructions.
///
/// `fn_entry_addr` is the virtual address of the entered/exited function's
/// first instruction — the "call/return target address" of the paper's log
/// entries. Implementations charge their own costs against `machine`; that
/// is how the recorder's overhead becomes visible to the experiment.
pub trait ProfilerHooks {
    /// A function was entered on thread `tid`.
    fn on_enter(&mut self, machine: &mut Machine, fn_entry_addr: u64, tid: u64);
    /// A function is about to return on thread `tid`.
    fn on_exit(&mut self, machine: &mut Machine, fn_entry_addr: u64, tid: u64);
}

/// Context handed to an [`InstrObserver`] after each executed instruction.
#[derive(Debug)]
pub struct SampleCtx<'a> {
    /// Virtual address of the instruction that just executed.
    pub ip: u64,
    /// Executing VM thread id.
    pub tid: u64,
    /// Entry addresses of every function on the call stack, outermost first
    /// (the last element is the currently executing function).
    pub stack: &'a [u64],
}

/// Observer of the executing instruction stream (e.g. a sampling profiler).
pub trait InstrObserver {
    /// Called after every executed instruction. Implementations decide
    /// whether to take a sample and charge `machine` accordingly.
    fn observe(&mut self, machine: &mut Machine, ctx: &SampleCtx<'_>);
}

/// Limits and scheduling parameters for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Abort with [`McError::InstructionBudget`] after this many executed
    /// instructions.
    pub max_instructions: u64,
    /// Instructions a thread runs before the scheduler rotates.
    pub quantum: u32,
    /// Maximum call depth before a stack-overflow trap.
    pub max_frames: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_instructions: 2_000_000_000,
            quantum: 500,
            max_frames: 4_096,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum TState {
    Ready,
    Blocked(u64),
    Done(Value),
}

#[derive(Debug)]
struct Frame {
    fn_idx: u16,
    ip: u32,
    locals: Vec<Value>,
}

#[derive(Debug)]
struct Thread {
    tid: u64,
    frames: Vec<Frame>,
    stack: Vec<Value>,
    /// Function entry addresses mirroring `frames` (for samplers).
    addr_stack: Vec<u64>,
    state: TState,
}

/// The virtual machine. One `Vm` executes one program once.
pub struct Vm {
    program: Arc<CompiledProgram>,
    machine: Machine,
    heap: Heap,
    globals: Vec<Value>,
    string_refs: Vec<u32>,
    threads: Vec<Thread>,
    run_queue: VecDeque<usize>,
    output: Vec<String>,
    hooks: Option<Box<dyn ProfilerHooks>>,
    observer: Option<Box<dyn InstrObserver>>,
    executed: u64,
    next_tid: u64,
    config: RunConfig,
    finished: bool,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("functions", &self.program.functions.len())
            .field("threads", &self.threads.len())
            .field("executed", &self.executed)
            .field("finished", &self.finished)
            .finish()
    }
}

fn base_cost(i: Instr) -> u64 {
    match i {
        Instr::IMul => 3,
        Instr::IDiv | Instr::IRem => 26,
        Instr::FAdd | Instr::FSub => 3,
        Instr::FMul => 4,
        Instr::FDiv => 22,
        Instr::FCmp(_) => 2,
        Instr::Itof | Instr::Ftoi => 2,
        Instr::Call(_) => 6,
        Instr::Ret => 4,
        Instr::CallBuiltin(_) => 2,
        Instr::ProfEnter(_) | Instr::ProfExit(_) => 0, // hooks charge themselves
        _ => 1,
    }
}

impl Vm {
    /// Create a VM for `program` on `machine`.
    pub fn new(program: CompiledProgram, machine: Machine) -> Vm {
        Vm::with_config(program, machine, RunConfig::default())
    }

    /// Create a VM with explicit run limits.
    pub fn with_config(program: CompiledProgram, machine: Machine, config: RunConfig) -> Vm {
        let mut heap = Heap::new();
        let string_refs = program
            .strings
            .iter()
            .map(|s| {
                let r = heap.alloc(s.len() as u64, Value::Int(0));
                let arr = heap.get_mut(r).expect("fresh ref");
                for (i, b) in s.iter().enumerate() {
                    arr.data[i] = Value::Int(*b);
                }
                r
            })
            .collect();
        let globals = program.globals.iter().map(|g| g.init).collect();
        Vm {
            program: Arc::new(program),
            machine,
            heap,
            globals,
            string_refs,
            threads: Vec::new(),
            run_queue: VecDeque::new(),
            output: Vec::new(),
            hooks: None,
            observer: None,
            executed: 0,
            next_tid: 0,
            config,
            finished: false,
        }
    }

    /// Install profiling hooks (TEE-Perf's injected-code runtime).
    pub fn set_hooks(&mut self, hooks: Box<dyn ProfilerHooks>) {
        self.hooks = Some(hooks);
    }

    /// Install an instruction observer (a sampling profiler).
    pub fn set_observer(&mut self, observer: Box<dyn InstrObserver>) {
        self.observer = Some(observer);
    }

    /// The compiled program being executed.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.program
    }

    /// The simulated machine (clock, stats, cost model).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine (e.g. to map shared memory).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Lines printed by the program, in order.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Instructions executed so far.
    pub fn executed_instructions(&self) -> u64 {
        self.executed
    }

    fn global_idx(&self, name: &str) -> Result<u16, McError> {
        self.program
            .global_index(name)
            .ok_or_else(|| McError::runtime(format!("no global named `{name}`")))
    }

    /// Set an `int` global before the run.
    ///
    /// # Errors
    /// Fails if no such global exists.
    pub fn set_global_int(&mut self, name: &str, v: i64) -> Result<(), McError> {
        let i = self.global_idx(name)?;
        self.globals[i as usize] = Value::Int(v);
        Ok(())
    }

    /// Allocate a heap array from `values` and point the named global at it.
    ///
    /// # Errors
    /// Fails if no such global exists.
    pub fn set_global_int_array(&mut self, name: &str, values: &[i64]) -> Result<(), McError> {
        let i = self.global_idx(name)?;
        let r = self.heap.alloc(values.len() as u64, Value::Int(0));
        let arr = self.heap.get_mut(r).expect("fresh ref");
        for (slot, v) in arr.data.iter_mut().zip(values) {
            *slot = Value::Int(*v);
        }
        self.globals[i as usize] = Value::Ref(r);
        Ok(())
    }

    /// Allocate a float heap array and point the named global at it.
    ///
    /// # Errors
    /// Fails if no such global exists.
    pub fn set_global_float_array(&mut self, name: &str, values: &[f64]) -> Result<(), McError> {
        let i = self.global_idx(name)?;
        let r = self.heap.alloc(values.len() as u64, Value::Float(0.0));
        let arr = self.heap.get_mut(r).expect("fresh ref");
        for (slot, v) in arr.data.iter_mut().zip(values) {
            *slot = Value::Float(*v);
        }
        self.globals[i as usize] = Value::Ref(r);
        Ok(())
    }

    /// Read a global's current value.
    ///
    /// # Errors
    /// Fails if no such global exists.
    pub fn global_value(&self, name: &str) -> Result<Value, McError> {
        let i = self.global_idx(name)?;
        Ok(self.globals[i as usize])
    }

    /// Read an `[int]` global as a vector (e.g. workload results).
    ///
    /// # Errors
    /// Fails if the global is missing, null, or holds non-integers.
    pub fn read_global_int_array(&self, name: &str) -> Result<Vec<i64>, McError> {
        let r = self.global_value(name)?.as_ref()?;
        self.heap.get(r)?.data.iter().map(|v| v.as_int()).collect()
    }

    /// Read a `[float]` global as a vector.
    ///
    /// # Errors
    /// Fails if the global is missing, null, or holds non-floats.
    pub fn read_global_float_array(&self, name: &str) -> Result<Vec<f64>, McError> {
        let r = self.global_value(name)?.as_ref()?;
        self.heap
            .get(r)?
            .data
            .iter()
            .map(|v| v.as_float())
            .collect()
    }

    fn spawn_thread(&mut self, fn_idx: u16, arg: Option<Value>) -> u64 {
        let tid = self.next_tid;
        self.next_tid += 1;
        let f = &self.program.functions[fn_idx as usize];
        let mut locals = vec![Value::Null; f.n_locals as usize];
        if let Some(arg) = arg {
            locals[0] = arg;
        }
        let entry = self.program.debug.entry_addr(fn_idx);
        self.threads.push(Thread {
            tid,
            frames: vec![Frame {
                fn_idx,
                ip: 0,
                locals,
            }],
            stack: Vec::new(),
            addr_stack: vec![entry],
            state: TState::Ready,
        });
        self.run_queue.push_back(self.threads.len() - 1);
        tid
    }

    /// Execute the program to completion and return `main`'s exit value.
    ///
    /// # Errors
    /// Propagates any runtime trap, deadlock, or instruction-budget
    /// exhaustion; also fails if the program has no `main` or the VM was
    /// already run.
    pub fn run(&mut self) -> Result<i64, McError> {
        if self.finished {
            return Err(McError::runtime("this Vm has already executed its program"));
        }
        self.finished = true;
        let Some(main) = self.program.main else {
            return Err(McError::runtime("program has no `main` function"));
        };
        let program = Arc::clone(&self.program);
        self.machine.ecall();
        self.spawn_thread(main, None);

        'sched: loop {
            let Some(t) = self.run_queue.pop_front() else {
                if self
                    .threads
                    .iter()
                    .all(|t| matches!(t.state, TState::Done(_)))
                {
                    break 'sched;
                }
                return Err(McError::runtime(
                    "deadlock: all live threads are blocked in join",
                ));
            };
            if self.threads[t].state != TState::Ready {
                continue;
            }
            for _ in 0..self.config.quantum {
                self.step(t, &program).map_err(|e| match e {
                    // Attach function/line context to raw runtime traps.
                    McError::Runtime { msg } if !msg.contains(" at line ") => {
                        self.runtime_err(&program, t, msg)
                    }
                    other => other,
                })?;
                if self.threads[t].state != TState::Ready {
                    continue 'sched;
                }
            }
            self.run_queue.push_back(t);
        }

        self.machine.eexit();
        let main_thread = &self.threads[0];
        let TState::Done(v) = main_thread.state else {
            unreachable!("scheduler exited with live threads");
        };
        v.as_int()
    }

    fn runtime_err(&self, program: &CompiledProgram, t: usize, msg: String) -> McError {
        let th = &self.threads[t];
        if let Some(f) = th.frames.last() {
            let func = &program.functions[f.fn_idx as usize];
            let ip = (f.ip as usize).saturating_sub(1).min(func.lines.len() - 1);
            let line = func.lines[ip];
            McError::runtime(format!("{msg} (in `{}` at line {line})", func.name))
        } else {
            McError::runtime(msg)
        }
    }

    #[inline]
    fn pop(stack: &mut Vec<Value>) -> Result<Value, McError> {
        stack
            .pop()
            .ok_or_else(|| McError::runtime("operand stack underflow"))
    }

    fn step(&mut self, t: usize, program: &CompiledProgram) -> Result<(), McError> {
        self.executed += 1;
        if self.executed > self.config.max_instructions {
            return Err(McError::InstructionBudget {
                budget: self.config.max_instructions,
            });
        }

        let (fn_idx, ip_before) = {
            let frame = self.threads[t]
                .frames
                .last()
                .expect("live thread has a frame");
            (frame.fn_idx, frame.ip)
        };
        let func = &program.functions[fn_idx as usize];
        debug_assert!(
            (ip_before as usize) < func.code.len(),
            "ip ran off function end"
        );
        let instr = func.code[ip_before as usize];
        self.machine.compute(base_cost(instr));
        self.threads[t].frames.last_mut().expect("frame").ip = ip_before + 1;

        match instr {
            Instr::PushInt(v) => self.threads[t].stack.push(Value::Int(v)),
            Instr::PushFloat(v) => self.threads[t].stack.push(Value::Float(v)),
            Instr::PushNull => self.threads[t].stack.push(Value::Null),
            Instr::PushStr(id) => {
                let r = self.string_refs[id as usize];
                self.threads[t].stack.push(Value::Ref(r));
            }
            Instr::LoadLocal(slot) => {
                let th = &mut self.threads[t];
                let v = th.frames.last().expect("frame").locals[slot as usize];
                th.stack.push(v);
            }
            Instr::StoreLocal(slot) => {
                let th = &mut self.threads[t];
                let v = Self::pop(&mut th.stack)?;
                th.frames.last_mut().expect("frame").locals[slot as usize] = v;
            }
            Instr::LoadGlobal(idx) => {
                self.machine.read(ENCLAVE_HEAP_BASE + u64::from(idx) * 8, 8);
                let v = self.globals[idx as usize];
                self.threads[t].stack.push(v);
            }
            Instr::StoreGlobal(idx) => {
                self.machine
                    .write(ENCLAVE_HEAP_BASE + u64::from(idx) * 8, 8);
                let v = Self::pop(&mut self.threads[t].stack)?;
                self.globals[idx as usize] = v;
            }
            Instr::LoadIndex => {
                let th = &mut self.threads[t];
                let idx = Self::pop(&mut th.stack)?.as_int()?;
                let r = Self::pop(&mut th.stack)?.as_ref()?;
                let addr = self.heap.elem_addr(r, idx)?;
                self.machine.read(addr, 8);
                let v = self.heap.get(r)?.data[idx as usize];
                self.threads[t].stack.push(v);
            }
            Instr::StoreIndex => {
                let th = &mut self.threads[t];
                let v = Self::pop(&mut th.stack)?;
                let idx = Self::pop(&mut th.stack)?.as_int()?;
                let r = Self::pop(&mut th.stack)?.as_ref()?;
                let addr = self.heap.elem_addr(r, idx)?;
                self.machine.write(addr, 8);
                self.heap.get_mut(r)?.data[idx as usize] = v;
            }
            Instr::IAdd
            | Instr::ISub
            | Instr::IMul
            | Instr::IDiv
            | Instr::IRem
            | Instr::BitAnd
            | Instr::BitOr
            | Instr::BitXor
            | Instr::Shl
            | Instr::Shr => {
                let th = &mut self.threads[t];
                let b = Self::pop(&mut th.stack)?.as_int()?;
                let a = Self::pop(&mut th.stack)?.as_int()?;
                let v = match instr {
                    Instr::IAdd => a.wrapping_add(b),
                    Instr::ISub => a.wrapping_sub(b),
                    Instr::IMul => a.wrapping_mul(b),
                    Instr::IDiv => a
                        .checked_div(b)
                        .ok_or_else(|| McError::runtime("integer division by zero or overflow"))?,
                    Instr::IRem => a
                        .checked_rem(b)
                        .ok_or_else(|| McError::runtime("integer remainder by zero or overflow"))?,
                    Instr::BitAnd => a & b,
                    Instr::BitOr => a | b,
                    Instr::BitXor => a ^ b,
                    Instr::Shl => a.wrapping_shl(b as u32 & 63),
                    Instr::Shr => a.wrapping_shr(b as u32 & 63),
                    _ => unreachable!(),
                };
                th.stack.push(Value::Int(v));
            }
            Instr::INeg => {
                let th = &mut self.threads[t];
                let a = Self::pop(&mut th.stack)?.as_int()?;
                th.stack.push(Value::Int(a.wrapping_neg()));
            }
            Instr::FAdd | Instr::FSub | Instr::FMul | Instr::FDiv => {
                let th = &mut self.threads[t];
                let b = Self::pop(&mut th.stack)?.as_float()?;
                let a = Self::pop(&mut th.stack)?.as_float()?;
                let v = match instr {
                    Instr::FAdd => a + b,
                    Instr::FSub => a - b,
                    Instr::FMul => a * b,
                    Instr::FDiv => a / b,
                    _ => unreachable!(),
                };
                th.stack.push(Value::Float(v));
            }
            Instr::FNeg => {
                let th = &mut self.threads[t];
                let a = Self::pop(&mut th.stack)?.as_float()?;
                th.stack.push(Value::Float(-a));
            }
            Instr::ICmp(op) => {
                let th = &mut self.threads[t];
                let b = Self::pop(&mut th.stack)?.as_int()?;
                let a = Self::pop(&mut th.stack)?.as_int()?;
                let v = match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                };
                th.stack.push(Value::Int(i64::from(v)));
            }
            Instr::FCmp(op) => {
                let th = &mut self.threads[t];
                let b = Self::pop(&mut th.stack)?.as_float()?;
                let a = Self::pop(&mut th.stack)?.as_float()?;
                let v = match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                };
                th.stack.push(Value::Int(i64::from(v)));
            }
            Instr::Not => {
                let th = &mut self.threads[t];
                let a = Self::pop(&mut th.stack)?.as_int()?;
                th.stack.push(Value::Int(i64::from(a == 0)));
            }
            Instr::Itof => {
                let th = &mut self.threads[t];
                let a = Self::pop(&mut th.stack)?.as_int()?;
                th.stack.push(Value::Float(a as f64));
            }
            Instr::Ftoi => {
                let th = &mut self.threads[t];
                let a = Self::pop(&mut th.stack)?.as_float()?;
                th.stack.push(Value::Int(a as i64));
            }
            Instr::Jump(target) => {
                self.threads[t].frames.last_mut().expect("frame").ip = target;
            }
            Instr::JumpIfFalse(target) => {
                let th = &mut self.threads[t];
                let c = Self::pop(&mut th.stack)?.as_int()?;
                if c == 0 {
                    th.frames.last_mut().expect("frame").ip = target;
                }
            }
            Instr::JumpIfTrue(target) => {
                let th = &mut self.threads[t];
                let c = Self::pop(&mut th.stack)?.as_int()?;
                if c != 0 {
                    th.frames.last_mut().expect("frame").ip = target;
                }
            }
            Instr::Call(callee) => {
                if self.threads[t].frames.len() >= self.config.max_frames {
                    return Err(self.runtime_err(program, t, "call stack overflow".into()));
                }
                let f = &program.functions[callee as usize];
                let th = &mut self.threads[t];
                let mut locals = vec![Value::Null; f.n_locals as usize];
                for slot in (0..f.n_params as usize).rev() {
                    locals[slot] = Self::pop(&mut th.stack)?;
                }
                th.frames.push(Frame {
                    fn_idx: callee,
                    ip: 0,
                    locals,
                });
                th.addr_stack.push(program.debug.entry_addr(callee));
            }
            Instr::Ret => {
                let th = &mut self.threads[t];
                let v = Self::pop(&mut th.stack)?;
                th.frames.pop();
                th.addr_stack.pop();
                if th.frames.is_empty() {
                    let tid = th.tid;
                    th.state = TState::Done(v);
                    // Wake joiners.
                    let mut woken = Vec::new();
                    for (i, other) in self.threads.iter_mut().enumerate() {
                        if other.state == TState::Blocked(tid) {
                            other.state = TState::Ready;
                            woken.push(i);
                        }
                    }
                    self.run_queue.extend(woken);
                } else {
                    th.stack.push(v);
                }
            }
            Instr::Pop => {
                Self::pop(&mut self.threads[t].stack)?;
            }
            Instr::ProfEnter(f) => {
                let addr = program.debug.entry_addr(f);
                let tid = self.threads[t].tid;
                if let Some(h) = self.hooks.as_mut() {
                    h.on_enter(&mut self.machine, addr, tid);
                }
            }
            Instr::ProfExit(f) => {
                let addr = program.debug.entry_addr(f);
                let tid = self.threads[t].tid;
                if let Some(h) = self.hooks.as_mut() {
                    h.on_exit(&mut self.machine, addr, tid);
                }
            }
            Instr::CallBuiltin(b) => {
                self.builtin(t, b, program)?;
            }
        }

        if let Some(obs) = self.observer.as_mut() {
            let th = &self.threads[t];
            let ctx = SampleCtx {
                ip: program.debug.instr_addr(fn_idx, ip_before),
                tid: th.tid,
                stack: &th.addr_stack,
            };
            obs.observe(&mut self.machine, &ctx);
        }
        Ok(())
    }

    fn builtin(&mut self, t: usize, b: Builtin, program: &CompiledProgram) -> Result<(), McError> {
        match b {
            Builtin::Alloc => {
                let th = &mut self.threads[t];
                let count = Self::pop(&mut th.stack)?.as_int()?;
                let code = Self::pop(&mut th.stack)?.as_int()?;
                if count < 0 {
                    return Err(McError::runtime(format!("alloc of negative size {count}")));
                }
                if count > 1 << 27 {
                    return Err(McError::runtime(format!(
                        "alloc of {count} elements exceeds the VM limit"
                    )));
                }
                let fill = match code {
                    elem_code::INT => Value::Int(0),
                    elem_code::FLOAT => Value::Float(0.0),
                    _ => Value::Null,
                };
                let r = self.heap.alloc(count as u64, fill);
                // Zeroing cost: one write per cache line.
                self.machine.compute(30 + (count as u64 * 8) / 64);
                self.threads[t].stack.push(Value::Ref(r));
            }
            Builtin::Len => {
                let th = &mut self.threads[t];
                let r = Self::pop(&mut th.stack)?.as_ref()?;
                let len = self.heap.get(r)?.data.len() as i64;
                self.threads[t].stack.push(Value::Int(len));
            }
            Builtin::Itof => {
                let th = &mut self.threads[t];
                let a = Self::pop(&mut th.stack)?.as_int()?;
                th.stack.push(Value::Float(a as f64));
            }
            Builtin::Ftoi => {
                let th = &mut self.threads[t];
                let a = Self::pop(&mut th.stack)?.as_float()?;
                th.stack.push(Value::Int(a as i64));
            }
            Builtin::Sqrt | Builtin::Fabs | Builtin::Floor => {
                let th = &mut self.threads[t];
                let a = Self::pop(&mut th.stack)?.as_float()?;
                let v = match b {
                    Builtin::Sqrt => a.sqrt(),
                    Builtin::Fabs => a.abs(),
                    _ => a.floor(),
                };
                self.machine.compute(25);
                th.stack.push(Value::Float(v));
            }
            Builtin::PrintInt => {
                let th = &mut self.threads[t];
                let a = Self::pop(&mut th.stack)?.as_int()?;
                self.output.push(a.to_string());
                self.machine.syscall(Syscalls::Write);
                self.threads[t].stack.push(Value::Null);
            }
            Builtin::PrintFloat => {
                let th = &mut self.threads[t];
                let a = Self::pop(&mut th.stack)?.as_float()?;
                self.output.push(format!("{a:.6}"));
                self.machine.syscall(Syscalls::Write);
                self.threads[t].stack.push(Value::Null);
            }
            Builtin::PrintStr => {
                let th = &mut self.threads[t];
                let r = Self::pop(&mut th.stack)?.as_ref()?;
                let bytes: Result<Vec<u8>, McError> = self
                    .heap
                    .get(r)?
                    .data
                    .iter()
                    .map(|v| v.as_int().map(|i| i as u8))
                    .collect();
                self.output
                    .push(String::from_utf8_lossy(&bytes?).into_owned());
                self.machine.syscall(Syscalls::Write);
                self.threads[t].stack.push(Value::Null);
            }
            Builtin::Spawn => {
                let th = &mut self.threads[t];
                let arg = Self::pop(&mut th.stack)?;
                let fn_idx = Self::pop(&mut th.stack)?.as_int()? as u16;
                self.machine.compute(3_000); // pthread_create-ish
                let tid = self.spawn_thread(fn_idx, Some(arg));
                self.threads[t].stack.push(Value::Int(tid as i64));
            }
            Builtin::Join => {
                let th = &mut self.threads[t];
                let tid = Self::pop(&mut th.stack)?.as_int()?;
                let target = self
                    .threads
                    .iter()
                    .position(|x| x.tid == tid as u64)
                    .ok_or_else(|| McError::runtime(format!("join of unknown thread {tid}")))?;
                match self.threads[target].state {
                    TState::Done(v) => {
                        self.machine.compute(200);
                        self.threads[t].stack.push(v);
                    }
                    _ => {
                        // Re-execute this join once woken.
                        let th = &mut self.threads[t];
                        th.stack.push(Value::Int(tid));
                        let f = th.frames.last_mut().expect("frame");
                        f.ip -= 1;
                        th.state = TState::Blocked(tid as u64);
                    }
                }
            }
            Builtin::AtomicAdd => {
                let th = &mut self.threads[t];
                let delta = Self::pop(&mut th.stack)?.as_int()?;
                let idx = Self::pop(&mut th.stack)?.as_int()?;
                let r = Self::pop(&mut th.stack)?.as_ref()?;
                let addr = self.heap.elem_addr(r, idx)?;
                self.machine.read(addr, 8);
                self.machine.write(addr, 8);
                self.machine.compute(20); // lock prefix
                let cell = &mut self.heap.get_mut(r)?.data[idx as usize];
                let old = cell.as_int()?;
                *cell = Value::Int(old.wrapping_add(delta));
                self.threads[t].stack.push(Value::Int(old));
            }
            Builtin::Getpid => {
                let v = self.machine.syscall(Syscalls::Getpid);
                self.threads[t].stack.push(Value::Int(v as i64));
            }
            Builtin::Now => {
                let v = self.machine.syscall(Syscalls::Rdtsc);
                self.threads[t].stack.push(Value::Int(v as i64));
            }
            Builtin::Assert => {
                let th = &mut self.threads[t];
                let c = Self::pop(&mut th.stack)?.as_int()?;
                if c == 0 {
                    return Err(McError::runtime("assertion failed"));
                }
                th.stack.push(Value::Null);
            }
        }
        let _ = program;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use tee_sim::CostModel;

    fn run_src(src: &str) -> i64 {
        let p = compile(src).unwrap();
        let mut vm = Vm::new(p, Machine::new(CostModel::native()));
        vm.run().unwrap()
    }

    fn run_err(src: &str) -> McError {
        let p = compile(src).unwrap();
        let mut vm = Vm::new(p, Machine::new(CostModel::native()));
        vm.run().unwrap_err()
    }

    #[test]
    fn arithmetic_and_calls() {
        assert_eq!(run_src("fn main() -> int { return 2 + 3 * 4; }"), 14);
        assert_eq!(
            run_src(
                "fn sq(x: int) -> int { return x * x; } fn main() -> int { return sq(sq(2)); }"
            ),
            16
        );
        assert_eq!(run_src("fn main() -> int { return 7 / 2 + 7 % 2; }"), 4);
        assert_eq!(run_src("fn main() -> int { return -5 + 2; }"), -3);
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(
            run_src("fn main() -> int { return ftoi(1.5 * 4.0 + 0.25); }"),
            6
        );
        assert_eq!(run_src("fn main() -> int { return ftoi(sqrt(81.0)); }"), 9);
        assert_eq!(
            run_src("fn main() -> int { return ftoi(fabs(-2.5) * 2.0); }"),
            5
        );
        assert_eq!(run_src("fn main() -> int { return ftoi(floor(2.9)); }"), 2);
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            run_src(
                "fn main() -> int {
                    let s: int = 0;
                    for (let i: int = 0; i < 10; i = i + 1) {
                        if (i % 2 == 0) { continue; }
                        if (i == 9) { break; }
                        s = s + i;
                    }
                    return s;
                }"
            ),
            1 + 3 + 5 + 7
        );
    }

    #[test]
    fn while_loop_and_logic() {
        assert_eq!(
            run_src(
                "fn main() -> int {
                    let n: int = 0;
                    while (n < 100 && 1) { n = n + 7; }
                    return n;
                }"
            ),
            105
        );
        assert_eq!(run_src("fn main() -> int { return 0 || 2; }"), 1);
        assert_eq!(run_src("fn main() -> int { return 3 && 2; }"), 1);
        assert_eq!(run_src("fn main() -> int { return !5 + !0; }"), 1);
    }

    #[test]
    fn short_circuit_skips_rhs() {
        // If the rhs executed, it would divide by zero.
        assert_eq!(
            run_src("fn main() -> int { let z: int = 0; return 0 && 1 / z; }"),
            0
        );
        assert_eq!(
            run_src("fn main() -> int { let z: int = 0; return 1 || 1 / z; }"),
            1
        );
    }

    #[test]
    fn arrays_and_strings() {
        assert_eq!(
            run_src(
                "fn main() -> int {
                    let a: [int] = alloc(5);
                    for (let i: int = 0; i < 5; i = i + 1) { a[i] = i * i; }
                    return a[4] + len(a);
                }"
            ),
            21
        );
        assert_eq!(
            run_src(r#"fn main() -> int { let s: [int] = "abc"; return s[0] + len(s); }"#),
            100
        );
    }

    #[test]
    fn nested_arrays() {
        assert_eq!(
            run_src(
                "fn main() -> int {
                    let m: [[int]] = alloc(3);
                    for (let i: int = 0; i < 3; i = i + 1) {
                        m[i] = alloc(3);
                        m[i][i] = i + 1;
                    }
                    return m[0][0] + m[1][1] + m[2][2];
                }"
            ),
            6
        );
    }

    #[test]
    fn globals_and_host_injection() {
        let p = compile(
            "global data: [int];
             global n: int;
             global out: int;
             fn main() -> int {
                 let s: int = 0;
                 for (let i: int = 0; i < n; i = i + 1) { s = s + data[i]; }
                 out = s;
                 return 0;
             }",
        )
        .unwrap();
        let mut vm = Vm::new(p, Machine::new(CostModel::native()));
        vm.set_global_int_array("data", &[10, 20, 30]).unwrap();
        vm.set_global_int("n", 3).unwrap();
        assert_eq!(vm.run().unwrap(), 0);
        assert_eq!(vm.global_value("out").unwrap(), Value::Int(60));
    }

    #[test]
    fn threads_spawn_join() {
        assert_eq!(
            run_src(
                "global acc: [int];
                 fn worker(id: int) -> int {
                     atomic_add(acc, 0, id + 1);
                     return id * 10;
                 }
                 fn main() -> int {
                     acc = alloc(1);
                     let t0: int = spawn(worker, 0);
                     let t1: int = spawn(worker, 1);
                     let t2: int = spawn(worker, 2);
                     let r: int = join(t0) + join(t1) + join(t2);
                     return r + acc[0];
                 }"
            ),
            30 + 6
        );
    }

    #[test]
    fn many_threads_deterministic() {
        let src = "global acc: [int];
             fn worker(id: int) -> int {
                 let s: int = 0;
                 for (let i: int = 0; i < 100; i = i + 1) { s = s + i * id; }
                 atomic_add(acc, 0, s);
                 return 0;
             }
             fn main() -> int {
                 acc = alloc(1);
                 let tids: [int] = alloc(8);
                 for (let i: int = 0; i < 8; i = i + 1) { tids[i] = spawn(worker, i); }
                 for (let i: int = 0; i < 8; i = i + 1) { join(tids[i]); }
                 return acc[0];
             }";
        let expected = (0..8)
            .map(|id| (0..100).map(|i| i * id).sum::<i64>())
            .sum::<i64>();
        let a = run_src(src);
        assert_eq!(a, expected);
        // Determinism: same cycle count on a second run.
        let p = compile(src).unwrap();
        let mut vm1 = Vm::new(p.clone(), Machine::new(CostModel::sgx_v1()));
        vm1.run().unwrap();
        let p2 = compile(src).unwrap();
        let mut vm2 = Vm::new(p2, Machine::new(CostModel::sgx_v1()));
        vm2.run().unwrap();
        assert_eq!(vm1.machine().clock().now(), vm2.machine().clock().now());
        let _ = p;
    }

    #[test]
    fn join_before_thread_finishes_blocks_correctly() {
        // Main joins immediately; worker does a long loop. The result must
        // still be correct.
        assert_eq!(
            run_src(
                "fn worker(n: int) -> int {
                     let s: int = 0;
                     for (let i: int = 0; i < 10000; i = i + 1) { s = s + 1; }
                     return s + n;
                 }
                 fn main() -> int { return join(spawn(worker, 5)); }"
            ),
            10_005
        );
    }

    #[test]
    fn traps() {
        assert!(matches!(
            run_err("fn main() -> int { let z: int = 0; return 1 / z; }"),
            McError::Runtime { .. }
        ));
        assert!(matches!(
            run_err("fn main() -> int { let a: [int] = alloc(2); return a[5]; }"),
            McError::Runtime { .. }
        ));
        assert!(matches!(
            run_err("global g: [int]; fn main() -> int { return g[0]; }"),
            McError::Runtime { .. }
        ));
        assert!(matches!(
            run_err("fn main() -> int { assert(1 == 2); return 0; }"),
            McError::Runtime { .. }
        ));
    }

    #[test]
    fn trap_messages_carry_function_and_line() {
        let e = run_err("fn main() -> int {\n let z: int = 0;\n return 1 / z;\n}");
        let msg = e.to_string();
        assert!(msg.contains("main"), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");
    }

    #[test]
    fn infinite_recursion_overflows_cleanly() {
        let e = run_err("fn f(x: int) -> int { return f(x); } fn main() -> int { return f(1); }");
        assert!(e.to_string().contains("overflow"), "{e}");
    }

    #[test]
    fn instruction_budget_enforced() {
        let p = compile("fn main() -> int { while (1) { } return 0; }").unwrap();
        let mut vm = Vm::with_config(
            p,
            Machine::new(CostModel::native()),
            RunConfig {
                max_instructions: 10_000,
                ..RunConfig::default()
            },
        );
        assert!(matches!(
            vm.run().unwrap_err(),
            McError::InstructionBudget { budget: 10_000 }
        ));
    }

    #[test]
    fn print_output_captured() {
        let p = compile(
            r#"fn main() -> int { print_int(42); print_str("done"); print_float(1.5); return 0; }"#,
        )
        .unwrap();
        let mut vm = Vm::new(p, Machine::new(CostModel::native()));
        vm.run().unwrap();
        assert_eq!(vm.output(), ["42", "done", "1.500000"]);
    }

    #[test]
    fn vm_is_single_use() {
        let p = compile("fn main() -> int { return 0; }").unwrap();
        let mut vm = Vm::new(p, Machine::new(CostModel::native()));
        vm.run().unwrap();
        assert!(vm.run().is_err());
    }

    #[test]
    fn sgx_run_is_slower_than_native() {
        let src = "global data: [int];
             fn main() -> int {
                 let s: int = 0;
                 for (let i: int = 0; i < 5000; i = i + 1) { s = s + data[i % 512]; }
                 return s;
             }";
        let mk = |cost| {
            let p = compile(src).unwrap();
            let mut vm = Vm::new(p, Machine::new(cost));
            vm.set_global_int_array("data", &vec![1; 512]).unwrap();
            vm.run().unwrap();
            vm.machine().clock().now()
        };
        let native = mk(CostModel::native());
        let sgx = mk(CostModel::sgx_v1());
        assert!(sgx > native, "sgx {sgx} should exceed native {native}");
    }

    #[test]
    fn getpid_and_now_work() {
        assert_eq!(
            run_src("fn main() -> int { return getpid(); }"),
            i64::from(std::process::id())
        );
        assert_eq!(run_src("fn main() -> int { return now() > 0; }"), 1);
    }

    #[test]
    fn observer_sees_instructions_and_stack() {
        struct Counter {
            seen: u64,
            max_depth: usize,
        }
        impl InstrObserver for Counter {
            fn observe(&mut self, _m: &mut Machine, ctx: &SampleCtx<'_>) {
                self.seen += 1;
                self.max_depth = self.max_depth.max(ctx.stack.len());
                assert!(ctx.ip >= tee_sim::ENCLAVE_TEXT_BASE);
            }
        }
        let p = compile(
            "fn leaf(x: int) -> int { return x; }
             fn mid(x: int) -> int { return leaf(x) + 1; }
             fn main() -> int { return mid(1); }",
        )
        .unwrap();
        let mut vm = Vm::new(p, Machine::new(CostModel::native()));
        vm.set_observer(Box::new(Counter {
            seen: 0,
            max_depth: 0,
        }));
        vm.run().unwrap();
        // The observer box is owned by the VM; re-extract is not offered, so
        // assert indirectly through executed_instructions.
        assert!(vm.executed_instructions() > 5);
    }

    #[test]
    fn hooks_fire_on_instrumented_code() {
        // Hand-instrument: wrap main's code with ProfEnter/ProfExit.
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut p = compile("fn main() -> int { return 3; }").unwrap();
        let main = &mut p.functions[0];
        main.code.insert(0, Instr::ProfEnter(0));
        main.lines.insert(0, 0);
        // Fix: ret is now at index 2; insert exit before it.
        let ret_at = main.code.iter().position(|i| *i == Instr::Ret).unwrap();
        main.code.insert(ret_at, Instr::ProfExit(0));
        main.lines.insert(ret_at, 0);
        p.rebuild_debug_info();

        #[derive(Default)]
        struct Rec {
            events: Rc<RefCell<Vec<(bool, u64, u64)>>>,
        }
        impl ProfilerHooks for Rec {
            fn on_enter(&mut self, _m: &mut Machine, addr: u64, tid: u64) {
                self.events.borrow_mut().push((true, addr, tid));
            }
            fn on_exit(&mut self, _m: &mut Machine, addr: u64, tid: u64) {
                self.events.borrow_mut().push((false, addr, tid));
            }
        }
        let events = Rc::new(RefCell::new(Vec::new()));
        let entry = p.debug.entry_addr(0);
        let mut vm = Vm::new(p, Machine::new(CostModel::native()));
        vm.set_hooks(Box::new(Rec {
            events: Rc::clone(&events),
        }));
        assert_eq!(vm.run().unwrap(), 3);
        let ev = events.borrow();
        assert_eq!(&*ev, &[(true, entry, 0), (false, entry, 0)]);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::compile;
    use tee_sim::CostModel;

    fn run_src(src: &str) -> i64 {
        let p = compile(src).unwrap();
        let mut vm = Vm::new(p, Machine::new(CostModel::native()));
        vm.run().unwrap()
    }

    #[test]
    fn bit_operations_semantics() {
        assert_eq!(
            run_src("fn main() -> int { return (12 & 10) | (1 ^ 3); }"),
            8 | 2
        );
        assert_eq!(run_src("fn main() -> int { return 1 << 10; }"), 1024);
        assert_eq!(
            run_src("fn main() -> int { return -8 >> 1; }"),
            -4,
            "arithmetic shift"
        );
        // Shift counts wrap modulo 64, like x86.
        assert_eq!(run_src("fn main() -> int { return 1 << 64; }"), 1);
    }

    #[test]
    fn float_comparisons_and_negation() {
        assert_eq!(run_src("fn main() -> int { return 1.5 < 2.5; }"), 1);
        assert_eq!(run_src("fn main() -> int { return 2.5 <= 2.5; }"), 1);
        assert_eq!(run_src("fn main() -> int { return 2.5 != 2.5; }"), 0);
        assert_eq!(
            run_src("fn main() -> int { return ftoi(-(-3.5) * 2.0); }"),
            7
        );
        // 0.0/0.0 is NaN: all comparisons false.
        assert_eq!(
            run_src("fn main() -> int { let z: float = 0.0; let n: float = z / z; return (n == n) + (n < 1.0) + (n > 1.0); }"),
            0
        );
    }

    #[test]
    fn integer_wrapping_matches_two_complement() {
        assert_eq!(
            run_src("fn main() -> int { let big: int = 0x7fffffffffffffff; return big + 1 < 0; }"),
            1
        );
        assert_eq!(
            run_src(
                "fn main() -> int { let big: int = 0x7fffffffffffffff; return -(-big) == big; }"
            ),
            1
        );
    }

    #[test]
    fn deeply_nested_control_flow() {
        assert_eq!(
            run_src(
                "fn main() -> int {
                    let n: int = 0;
                    for (let a: int = 0; a < 3; a = a + 1) {
                        for (let b: int = 0; b < 3; b = b + 1) {
                            if (a == b) { continue; }
                            while (n % 7 != a + b) { n = n + 1; }
                        }
                    }
                    return n;
                }"
            ),
            run_src(
                "fn main() -> int {
                    let n: int = 0;
                    for (let a: int = 0; a < 3; a = a + 1) {
                        for (let b: int = 0; b < 3; b = b + 1) {
                            if (a != b) {
                                while (n % 7 != a + b) { n = n + 1; }
                            }
                        }
                    }
                    return n;
                }"
            )
        );
    }

    #[test]
    fn zero_length_array_is_usable_but_unindexable() {
        assert_eq!(
            run_src("fn main() -> int { let a: [int] = alloc(0); return len(a); }"),
            0
        );
        let p = compile("fn main() -> int { let a: [int] = alloc(0); return a[0]; }").unwrap();
        let mut vm = Vm::new(p, Machine::new(CostModel::native()));
        assert!(vm.run().is_err());
    }

    #[test]
    fn thread_returning_early_result_consumed_late() {
        // Worker finishes long before the join; its Done value must persist.
        assert_eq!(
            run_src(
                "fn quick(x: int) -> int { return x + 100; }
                 fn main() -> int {
                     let t: int = spawn(quick, 5);
                     let s: int = 0;
                     for (let i: int = 0; i < 5000; i = i + 1) { s = s + 1; }
                     return join(t) + (s - s);
                 }"
            ),
            105
        );
    }

    #[test]
    fn spawned_threads_can_spawn() {
        assert_eq!(
            run_src(
                "fn leaf(x: int) -> int { return x * 3; }
                 fn mid(x: int) -> int { return join(spawn(leaf, x + 1)); }
                 fn main() -> int { return join(spawn(mid, 10)); }"
            ),
            33
        );
    }

    #[test]
    fn string_constants_are_shared_not_reallocated() {
        // A loop using a literal must not grow the heap per iteration.
        let p = compile(
            r#"fn main() -> int {
                let total: int = 0;
                for (let i: int = 0; i < 100; i = i + 1) {
                    let s: [int] = "xyz";
                    total = total + len(s);
                }
                return total;
            }"#,
        )
        .unwrap();
        let mut vm = Vm::new(p, Machine::new(CostModel::native()));
        assert_eq!(vm.run().unwrap(), 300);
    }
}
