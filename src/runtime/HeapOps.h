//===- runtime/HeapOps.h - Heap opcode semantics ----------------*- C++ -*-===//
///
/// \file
/// The dynamic checks and heap effects of every heap-touching opcode,
/// defined once for every execution tier: Machine::execOne runs them with
/// all checks, Machine::execOneElided with the reduced checks the
/// trace-path alias analysis licenses (trace/Trace.h's MemElision), and
/// the template JIT's runtime helpers instantiate one helper per check
/// level. Each accessor reports the trap that stopped it (TrapKind::None
/// on success); the caller owns the operand stack and turns a trap into
/// its own control effect.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_RUNTIME_HEAPOPS_H
#define JTC_RUNTIME_HEAPOPS_H

#include "bytecode/Program.h"
#include "runtime/Heap.h"
#include "runtime/Trap.h"

#include <cstddef>
#include <cstdint>

namespace jtc {

/// Which dynamic checks a heap access runs. Below All the caller asserts
/// the proof that the skipped checks pass: an unjustified reduced-check
/// access is undefined behaviour (Heap's own asserts police it in checked
/// builds).
enum class CheckLevel : uint8_t {
  All,    ///< Liveness/class check, then the bounds check.
  NoNull, ///< Skip the liveness/class check; keep the bounds check.
  None,   ///< Skip every check: the access cannot trap.
};

/// The liveness/class check of every array opcode, run only at All.
template <CheckLevel L>
inline TrapKind checkArrayRef(const Heap &H, int64_t Ref) {
  if constexpr (L == CheckLevel::All)
    if (!H.isLive(Ref) || H.classOf(Ref) != Heap::ArrayClass)
      return TrapKind::NullReference;
  return TrapKind::None;
}

/// Checks for an array element access at \p L.
template <CheckLevel L>
inline TrapKind checkArrayIndex(const Heap &H, int64_t Ref, int64_t Idx) {
  if (TrapKind T = checkArrayRef<L>(H, Ref); T != TrapKind::None)
    return T;
  if constexpr (L != CheckLevel::None)
    if (Idx < 0 || static_cast<size_t>(Idx) >= H.slotCount(Ref))
      return TrapKind::ArrayBounds;
  return TrapKind::None;
}

/// Checks for an object field access at \p L.
template <CheckLevel L>
inline TrapKind checkField(const Heap &H, int64_t Ref, int64_t Slot) {
  if constexpr (L == CheckLevel::All)
    if (!H.isLive(Ref) || H.classOf(Ref) == Heap::ArrayClass)
      return TrapKind::NullReference;
  if constexpr (L != CheckLevel::None)
    if (static_cast<size_t>(Slot) >= H.slotCount(Ref))
      return TrapKind::FieldBounds;
  return TrapKind::None;
}

/// Iaload: \p Out = Ref[Idx].
template <CheckLevel L>
inline TrapKind arrayLoad(const Heap &H, int64_t Ref, int64_t Idx,
                          int64_t &Out) {
  TrapKind T = checkArrayIndex<L>(H, Ref, Idx);
  if (T == TrapKind::None)
    Out = H.load(Ref, static_cast<size_t>(Idx));
  return T;
}

/// Iastore: Ref[Idx] = Value.
template <CheckLevel L>
inline TrapKind arrayStore(Heap &H, int64_t Ref, int64_t Idx, int64_t Value) {
  TrapKind T = checkArrayIndex<L>(H, Ref, Idx);
  if (T == TrapKind::None)
    H.store(Ref, static_cast<size_t>(Idx), Value);
  return T;
}

/// ArrayLength. Its only check is the liveness/class check, so NoNull and
/// None both skip everything.
template <CheckLevel L>
inline TrapKind arrayLength(const Heap &H, int64_t Ref, int64_t &Out) {
  TrapKind T = checkArrayRef<L>(H, Ref);
  if (T == TrapKind::None)
    Out = static_cast<int64_t>(H.slotCount(Ref));
  return T;
}

/// GetField: \p Out = Ref.Slot.
template <CheckLevel L>
inline TrapKind getField(const Heap &H, int64_t Ref, int64_t Slot,
                         int64_t &Out) {
  TrapKind T = checkField<L>(H, Ref, Slot);
  if (T == TrapKind::None)
    Out = H.load(Ref, static_cast<size_t>(Slot));
  return T;
}

/// PutField: Ref.Slot = Value.
template <CheckLevel L>
inline TrapKind putField(Heap &H, int64_t Ref, int64_t Slot, int64_t Value) {
  TrapKind T = checkField<L>(H, Ref, Slot);
  if (T == TrapKind::None)
    H.store(Ref, static_cast<size_t>(Slot), Value);
  return T;
}

/// New: \p Out = a fresh zeroed instance of class \p ClassId.
inline TrapKind newObject(Heap &H, const Module &M, int64_t ClassId,
                          int64_t &Out) {
  const Class &C = M.Classes[static_cast<size_t>(ClassId)];
  Out = H.allocObject(static_cast<uint32_t>(ClassId), C.NumFields);
  return Out == Heap::Null ? TrapKind::OutOfMemory : TrapKind::None;
}

/// NewArray: \p Out = a fresh zeroed array of \p Len elements.
inline TrapKind newArray(Heap &H, int64_t Len, int64_t &Out) {
  if (Len < 0)
    return TrapKind::NegativeArraySize;
  Out = H.allocArray(Len);
  return Out == Heap::Null ? TrapKind::OutOfMemory : TrapKind::None;
}

/// InvokeVirtual's resolution: \p Callee = the method \p Receiver's class
/// binds to vtable slot \p Slot. Traps before any argument is consumed.
inline TrapKind resolveVirtual(const Heap &H, const Module &M, int64_t Slot,
                               int64_t Receiver, uint32_t &Callee) {
  if (!H.isLive(Receiver))
    return TrapKind::NullReference;
  uint32_t ClassId = H.classOf(Receiver);
  Callee = ClassId == Heap::ArrayClass
               ? InvalidMethod
               : M.Classes[ClassId].Vtable[static_cast<size_t>(Slot)];
  return Callee == InvalidMethod ? TrapKind::BadVirtualDispatch
                                 : TrapKind::None;
}

} // namespace jtc

#endif // JTC_RUNTIME_HEAPOPS_H
