#pragma once
// Compatibility shim: DesignSpace moved to the architecture layer
// (arch/design_space.hpp) so scenario specs can enumerate spaces without a
// core dependency. Everything re-exports under efficsense::core.
//
// Keep this header: the benchmark program (perfbench/offline.cpp) includes
// it, and the benchmark builds from its own frozen sources.

#include "arch/design_space.hpp"

namespace efficsense::core {

using arch::PointValues;
using arch::DesignSpace;
using arch::apply_axis;
using arch::apply_point;
using arch::point_to_string;
using arch::hash_point;

}  // namespace efficsense::core
