/// \file kernels_scalar.cpp
/// \brief The portable strategy: one 32-bit word at a time (V2/V3 and
/// AVX-less V4).
///
/// Compiled without ISA flags, so every popcount here is libgcc's software
/// routine, not the POPCNT instruction.

#include "kernel_bodies.hpp"

namespace trigen::core::detail {

constinit const KernelTable kScalarKernels = kernel_table<Scalar>();

}  // namespace trigen::core::detail
