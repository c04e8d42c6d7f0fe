//===- interp/BlockStepper.cpp --------------------------------------------===//

#include "interp/BlockStepper.h"

using namespace jtc;

BlockStepper::BlockStepper(const PreparedModule &PM, Machine &Mach)
    : PM(&PM), Mach(&Mach) {}

void BlockStepper::start() {
  Mach->start(PM->module().EntryMethod);
  Cur = PM->entryBlock();
  Instructions = 0;
}

BlockStepper::StepStatus BlockStepper::step() {
  assert(Cur != InvalidBlockId && "step() before start() or after finish");
  const BasicBlock &BB = PM->block(Cur);
  const Method &M = PM->module().Methods[BB.MethodId];

  // Consume the one-shot elision span armed for this block (null on the
  // vast majority of steps: one predictable branch per instruction).
  const MemElision *EF = Elide;
  const size_t EN = ElideCount;
  size_t EI = 0;
  Elide = nullptr;
  ElideCount = 0;

  for (uint32_t Pc = BB.StartPc; Pc < BB.EndPc; ++Pc) {
    Effect E;
    if (EF && EI < EN && EF[EI].Pc == Pc) {
      E = Mach->execOneElided(M.Code[Pc], EF[EI].level());
      ChecksElided += elisionWeight(M.Code[Pc].Op, EF[EI].level());
      ++EI;
    } else {
      E = Mach->execOne(M.Code[Pc]);
    }
    ++Instructions;

    switch (E.Kind) {
    case EffectKind::Next:
      break;
    case EffectKind::Jump:
      assert(Pc + 1 == BB.EndPc && "control transfer not at block end");
      Cur = PM->blockStartingAt(BB.MethodId, E.Target);
      return StepStatus::Continue;
    case EffectKind::Call:
      assert(Pc + 1 == BB.EndPc && "call not at block end");
      if (!Mach->pushFrame(E.Target, Pc + 1))
        return StepStatus::Trapped;
      Cur = PM->methodEntryBlock(E.Target);
      return StepStatus::Continue;
    case EffectKind::Ret: {
      assert(Pc + 1 == BB.EndPc && "return not at block end");
      Machine::PopInfo Info = Mach->popFrame(E.HasValue);
      if (Info.BottomFrame) {
        Cur = InvalidBlockId;
        return StepStatus::Finished;
      }
      Cur = PM->blockStartingAt(Mach->currentMethodId(), Info.ReturnPc);
      return StepStatus::Continue;
    }
    case EffectKind::Halt:
      Cur = InvalidBlockId;
      return StepStatus::Finished;
    case EffectKind::Trap:
      Cur = InvalidBlockId;
      return StepStatus::Trapped;
    }
  }

  // The block fell through into the leader at EndPc.
  Cur = PM->blockStartingAt(BB.MethodId, BB.EndPc);
  return StepStatus::Continue;
}

RunResult jtc::runBlocks(BlockStepper &Stepper, uint64_t MaxInstructions) {
  return runBlocksWithHook(Stepper, [](BlockId) {}, MaxInstructions);
}
