//===- runtime/Machine.h - Execution state and semantics --------*- C++ -*-===//
///
/// \file
/// The Machine owns all mutable execution state (operand stack, locals,
/// call frames, heap, output) and implements the semantics of every
/// opcode. The per-instruction interpreter (Fig. 1 dispatch model), the
/// per-block BlockStepper (Fig. 2 model) that TraceVM, the interpreter
/// trace tier and the NET baseline step with, all drive the same Machine,
/// so the dispatch models agree on program behaviour by construction and
/// differ only in dispatch granularity. Heap opcodes take their checks
/// from runtime/HeapOps.h, which the template JIT's helpers share.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_RUNTIME_MACHINE_H
#define JTC_RUNTIME_MACHINE_H

#include "bytecode/Program.h"
#include "runtime/Heap.h"
#include "runtime/HeapOps.h"
#include "runtime/Trap.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace jtc {

/// How one executed instruction affects control.
enum class EffectKind : uint8_t {
  Next, ///< Fall through to the next instruction.
  Jump, ///< Transfer to instruction index Effect::Target.
  Call, ///< Push a frame for method Effect::Target, then run its pc 0.
  Ret,  ///< Pop the current frame (Effect::HasValue: push return value).
  Halt, ///< Stop the virtual machine.
  Trap, ///< A runtime trap fired; see Machine::trap().
};

struct Effect {
  EffectKind Kind = EffectKind::Next;
  uint32_t Target = 0;
  bool HasValue = false;
};

/// Execution state plus opcode semantics for one program run.
///
/// The operand stack and locals of all frames live in two shared arenas;
/// each frame records its base offsets, so calls do not allocate.
class Machine {
public:
  explicit Machine(const Module &M, size_t MaxFrames = 2048,
                   size_t MaxHeapCells = 1u << 22);

  /// Clears all state (stacks, frames, heap, output, trap).
  void reset();

  /// Pushes the initial frame for \p MethodIdx, which must take no
  /// arguments.
  void start(uint32_t MethodIdx);

  /// Executes one instruction of the current frame's method and reports
  /// its control effect. Call/Ret effects only *resolve* the transfer; the
  /// interpreter applies them with pushFrame()/popFrame() so it can track
  /// dispatch boundaries.
  Effect execOne(const Instruction &I);

  /// Executes one *heap-access* instruction (GetField, PutField, Iaload,
  /// Iastore, ArrayLength) at check level \p Level, for accesses the
  /// trace-path alias analysis proved cannot fail the skipped checks
  /// (trace/Trace.h's MemElision). The caller asserts the proof: an
  /// unjustified call is undefined behaviour (the same type-verified-
  /// input assumption the validator's reference reasoning documents).
  /// Other opcodes, and CheckLevel::All, are plain execOne.
  Effect execOneElided(const Instruction &I, CheckLevel Level);

  /// Pushes a frame for \p Callee, moving its arguments from the operand
  /// stack into the new locals. Returns false (and sets a StackOverflow
  /// trap) when the frame budget is exhausted.
  bool pushFrame(uint32_t Callee, uint32_t ReturnPc);

  struct PopInfo {
    bool BottomFrame = false; ///< The popped frame was the entry frame.
    uint32_t ReturnPc = 0;    ///< Caller pc to resume at (if !BottomFrame).
  };

  /// Pops the current frame; when \p HasValue, transfers the return value
  /// to the caller's operand stack.
  PopInfo popFrame(bool HasValue);

  /// Module method id of the frame on top of the call stack.
  uint32_t currentMethodId() const {
    assert(!Frames.empty() && "no active frame");
    return Frames.back().MethodId;
  }

  const Method &currentMethod() const {
    return TheModule.Methods[currentMethodId()];
  }

  bool hasFrames() const { return !Frames.empty(); }
  size_t frameDepth() const { return Frames.size(); }

  TrapKind trap() const { return TrapValue; }

  /// Values emitted by Iprint, in order; the observable output of a run.
  const std::vector<int64_t> &output() const { return Output; }

  Heap &heap() { return TheHeap; }
  const Module &module() const { return TheModule; }

  // Raw operand-stack and local access, used by tests and by the machine
  // itself. The verifier guarantees stack discipline, so these assert
  // rather than trap.
  void push(int64_t V) { Operands.push_back(V); }
  int64_t pop() {
    assert(Operands.size() > frameOperandBase() && "operand stack underflow");
    int64_t V = Operands.back();
    Operands.pop_back();
    return V;
  }
  size_t operandDepth() const { return Operands.size() - frameOperandBase(); }

  int64_t local(uint32_t Idx) const {
    assert(!Frames.empty() && Idx < currentMethod().NumLocals);
    return Locals[Frames.back().LocalsBase + Idx];
  }
  void setLocal(uint32_t Idx, int64_t V) {
    assert(!Frames.empty() && Idx < currentMethod().NumLocals);
    Locals[Frames.back().LocalsBase + Idx] = V;
  }

  // Arena access for the template JIT (src/backend): generated code works
  // on the raw operand and locals arrays through base pointers, and its
  // runtime helpers call the same runtime/HeapOps.h accessors execOne does.
  // Pointers are invalidated by push/pop/resizeOperandStack and by frame
  // operations; the JIT re-derives them per trace run and never executes
  // native code across such an operation.
  size_t operandStackSize() const { return Operands.size(); }
  int64_t *operandStackData() { return Operands.data(); }
  void resizeOperandStack(size_t N) { Operands.resize(N); }
  int64_t *currentLocalsData() {
    assert(!Frames.empty() && "no active frame");
    return Locals.data() + Frames.back().LocalsBase;
  }
  void setTrap(TrapKind Kind) { TrapValue = Kind; }
  void appendOutput(int64_t V) { Output.push_back(V); }

private:
  struct Frame {
    uint32_t MethodId = 0;
    uint32_t LocalsBase = 0;
    uint32_t OperandBase = 0;
    uint32_t ReturnPc = 0;
  };

  size_t frameOperandBase() const {
    return Frames.empty() ? 0 : Frames.back().OperandBase;
  }

  Effect trapOut(TrapKind Kind) {
    TrapValue = Kind;
    return {EffectKind::Trap, 0, false};
  }

  /// Finishes a heap op: traps on \p Kind, otherwise falls through.
  Effect done(TrapKind Kind) {
    return Kind == TrapKind::None ? Effect{} : trapOut(Kind);
  }

  /// The operand-stack side of the elidable heap opcodes at check level
  /// \p L; the checks are HeapOps.h's. Other opcodes go to execOne.
  template <CheckLevel L> Effect execAccess(const Instruction &I);

  const Module &TheModule;
  Heap TheHeap;
  std::vector<int64_t> Operands;
  std::vector<int64_t> Locals;
  std::vector<Frame> Frames;
  std::vector<int64_t> Output;
  TrapKind TrapValue = TrapKind::None;
  size_t MaxFrames;
};

} // namespace jtc

#endif // JTC_RUNTIME_MACHINE_H
