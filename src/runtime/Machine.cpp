//===- runtime/Machine.cpp ------------------------------------------------===//

#include "runtime/Machine.h"

#include <limits>

using namespace jtc;

Machine::Machine(const Module &M, size_t MaxFrames, size_t MaxHeapCells)
    : TheModule(M), TheHeap(MaxHeapCells), MaxFrames(MaxFrames) {
  Operands.reserve(256);
  Locals.reserve(1024);
  Frames.reserve(64);
}

void Machine::reset() {
  Operands.clear();
  Locals.clear();
  Frames.clear();
  Output.clear();
  TheHeap.clear();
  TrapValue = TrapKind::None;
}

void Machine::start(uint32_t MethodIdx) {
  assert(Frames.empty() && "start() on a machine already running");
  assert(TheModule.Methods[MethodIdx].NumArgs == 0 &&
         "entry method must take no arguments");
  bool Ok = pushFrame(MethodIdx, /*ReturnPc=*/0);
  assert(Ok && "initial frame push cannot overflow");
  (void)Ok;
}

bool Machine::pushFrame(uint32_t Callee, uint32_t ReturnPc) {
  if (Frames.size() >= MaxFrames) {
    TrapValue = TrapKind::StackOverflow;
    return false;
  }
  const Method &M = TheModule.Methods[Callee];
  assert(Operands.size() - frameOperandBase() >= M.NumArgs &&
         "caller did not push enough arguments");

  Frame F;
  F.MethodId = Callee;
  F.ReturnPc = ReturnPc;
  F.LocalsBase = static_cast<uint32_t>(Locals.size());
  Locals.resize(Locals.size() + M.NumLocals, 0);
  // Move the arguments (deepest first) from the caller's operand stack
  // into locals [0, NumArgs).
  size_t ArgBase = Operands.size() - M.NumArgs;
  for (uint32_t I = 0; I < M.NumArgs; ++I)
    Locals[F.LocalsBase + I] = Operands[ArgBase + I];
  Operands.resize(ArgBase);
  F.OperandBase = static_cast<uint32_t>(Operands.size());
  Frames.push_back(F);
  return true;
}

Machine::PopInfo Machine::popFrame(bool HasValue) {
  assert(!Frames.empty() && "popFrame with no frames");
  int64_t RetVal = 0;
  if (HasValue)
    RetVal = pop();
  Frame F = Frames.back();
  Frames.pop_back();
  Operands.resize(F.OperandBase);
  Locals.resize(F.LocalsBase);

  PopInfo Info;
  Info.ReturnPc = F.ReturnPc;
  Info.BottomFrame = Frames.empty();
  if (!Info.BottomFrame && HasValue)
    push(RetVal);
  return Info;
}

template <CheckLevel L> Effect Machine::execAccess(const Instruction &I) {
  // Pop order is the opcode's operand order, the same at every level;
  // the loaded value is pushed only when no check trapped.
  int64_t V = 0;
  switch (I.Op) {
  case Opcode::GetField: {
    int64_t Ref = pop();
    if (TrapKind T = getField<L>(TheHeap, Ref, I.A, V); T != TrapKind::None)
      return trapOut(T);
    push(V);
    return {};
  }
  case Opcode::PutField: {
    int64_t Value = pop(), Ref = pop();
    return done(putField<L>(TheHeap, Ref, I.A, Value));
  }
  case Opcode::Iaload: {
    int64_t Idx = pop(), Ref = pop();
    if (TrapKind T = arrayLoad<L>(TheHeap, Ref, Idx, V); T != TrapKind::None)
      return trapOut(T);
    push(V);
    return {};
  }
  case Opcode::Iastore: {
    int64_t Value = pop(), Idx = pop(), Ref = pop();
    return done(arrayStore<L>(TheHeap, Ref, Idx, Value));
  }
  case Opcode::ArrayLength: {
    int64_t Ref = pop();
    if (TrapKind T = arrayLength<L>(TheHeap, Ref, V); T != TrapKind::None)
      return trapOut(T);
    push(V);
    return {};
  }
  default:
    return execOne(I);
  }
}

Effect Machine::execOne(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Nop:
    return {};
  case Opcode::Iconst:
    push(I.A);
    return {};
  case Opcode::Iload:
    push(local(static_cast<uint32_t>(I.A)));
    return {};
  case Opcode::Istore:
    setLocal(static_cast<uint32_t>(I.A), pop());
    return {};
  case Opcode::Iinc:
    setLocal(static_cast<uint32_t>(I.A),
             local(static_cast<uint32_t>(I.A)) + I.B);
    return {};
  case Opcode::Pop:
    pop();
    return {};
  case Opcode::Dup: {
    int64_t V = pop();
    push(V);
    push(V);
    return {};
  }
  case Opcode::Swap: {
    int64_t B = pop();
    int64_t A = pop();
    push(B);
    push(A);
    return {};
  }

  case Opcode::Iadd: {
    int64_t B = pop(), A = pop();
    push(static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B)));
    return {};
  }
  case Opcode::Isub: {
    int64_t B = pop(), A = pop();
    push(static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B)));
    return {};
  }
  case Opcode::Imul: {
    int64_t B = pop(), A = pop();
    push(static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B)));
    return {};
  }
  case Opcode::Idiv: {
    int64_t B = pop(), A = pop();
    if (B == 0)
      return trapOut(TrapKind::DivideByZero);
    // Define INT64_MIN / -1 as INT64_MIN instead of hardware UB.
    if (A == std::numeric_limits<int64_t>::min() && B == -1) {
      push(A);
      return {};
    }
    push(A / B);
    return {};
  }
  case Opcode::Irem: {
    int64_t B = pop(), A = pop();
    if (B == 0)
      return trapOut(TrapKind::DivideByZero);
    if (A == std::numeric_limits<int64_t>::min() && B == -1) {
      push(0);
      return {};
    }
    push(A % B);
    return {};
  }
  case Opcode::Ineg: {
    int64_t A = pop();
    push(static_cast<int64_t>(0 - static_cast<uint64_t>(A)));
    return {};
  }
  case Opcode::Ishl: {
    int64_t B = pop(), A = pop();
    push(static_cast<int64_t>(static_cast<uint64_t>(A) << (B & 63)));
    return {};
  }
  case Opcode::Ishr: {
    int64_t B = pop(), A = pop();
    push(A >> (B & 63));
    return {};
  }
  case Opcode::Iushr: {
    int64_t B = pop(), A = pop();
    push(static_cast<int64_t>(static_cast<uint64_t>(A) >> (B & 63)));
    return {};
  }
  case Opcode::Iand: {
    int64_t B = pop(), A = pop();
    push(A & B);
    return {};
  }
  case Opcode::Ior: {
    int64_t B = pop(), A = pop();
    push(A | B);
    return {};
  }
  case Opcode::Ixor: {
    int64_t B = pop(), A = pop();
    push(A ^ B);
    return {};
  }

  case Opcode::Goto:
    return {EffectKind::Jump, static_cast<uint32_t>(I.A), false};
  case Opcode::IfEq:
    return pop() == 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                               false}
                      : Effect{};
  case Opcode::IfNe:
    return pop() != 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                               false}
                      : Effect{};
  case Opcode::IfLt:
    return pop() < 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                              false}
                     : Effect{};
  case Opcode::IfGe:
    return pop() >= 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                               false}
                      : Effect{};
  case Opcode::IfGt:
    return pop() > 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                              false}
                     : Effect{};
  case Opcode::IfLe:
    return pop() <= 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                               false}
                      : Effect{};
  case Opcode::IfIcmpEq: {
    int64_t B = pop(), A = pop();
    return A == B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                  : Effect{};
  }
  case Opcode::IfIcmpNe: {
    int64_t B = pop(), A = pop();
    return A != B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                  : Effect{};
  }
  case Opcode::IfIcmpLt: {
    int64_t B = pop(), A = pop();
    return A < B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                 : Effect{};
  }
  case Opcode::IfIcmpGe: {
    int64_t B = pop(), A = pop();
    return A >= B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                  : Effect{};
  }
  case Opcode::IfIcmpGt: {
    int64_t B = pop(), A = pop();
    return A > B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                 : Effect{};
  }
  case Opcode::IfIcmpLe: {
    int64_t B = pop(), A = pop();
    return A <= B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                  : Effect{};
  }

  case Opcode::Tableswitch: {
    const SwitchTable &T = currentMethod().SwitchTables[I.A];
    int64_t Sel = pop();
    int64_t Off = Sel - T.Low;
    uint32_t Target = T.DefaultTarget;
    if (Off >= 0 && Off < static_cast<int64_t>(T.Targets.size()))
      Target = T.Targets[static_cast<size_t>(Off)];
    return {EffectKind::Jump, Target, false};
  }

  case Opcode::InvokeStatic:
    return {EffectKind::Call, static_cast<uint32_t>(I.A), false};

  case Opcode::InvokeVirtual: {
    const SlotInfo &Slot = TheModule.Slots[I.A];
    assert(operandDepth() >= Slot.ArgCount && "missing call arguments");
    int64_t Receiver = Operands[Operands.size() - Slot.ArgCount];
    uint32_t Callee = InvalidMethod;
    if (TrapKind T = resolveVirtual(TheHeap, TheModule, I.A, Receiver, Callee);
        T != TrapKind::None)
      return trapOut(T);
    return {EffectKind::Call, Callee, false};
  }

  case Opcode::Return:
    return {EffectKind::Ret, 0, false};
  case Opcode::Ireturn:
    return {EffectKind::Ret, 0, true};

  case Opcode::New: {
    int64_t Ref = Heap::Null;
    if (TrapKind T = newObject(TheHeap, TheModule, I.A, Ref);
        T != TrapKind::None)
      return trapOut(T);
    push(Ref);
    return {};
  }
  case Opcode::NewArray: {
    int64_t Len = pop(), Ref = Heap::Null;
    if (TrapKind T = newArray(TheHeap, Len, Ref); T != TrapKind::None)
      return trapOut(T);
    push(Ref);
    return {};
  }
  case Opcode::GetField:
  case Opcode::PutField:
  case Opcode::Iaload:
  case Opcode::Iastore:
  case Opcode::ArrayLength:
    return execAccess<CheckLevel::All>(I);

  case Opcode::Iprint:
    Output.push_back(pop());
    return {};

  case Opcode::Halt:
    return {EffectKind::Halt, 0, false};
  }
  assert(false && "unhandled opcode");
  return {EffectKind::Halt, 0, false};
}

Effect Machine::execOneElided(const Instruction &I, CheckLevel Level) {
  switch (Level) {
  case CheckLevel::NoNull:
    return execAccess<CheckLevel::NoNull>(I);
  case CheckLevel::None:
    return execAccess<CheckLevel::None>(I);
  case CheckLevel::All:
    break;
  }
  return execOne(I);
}
