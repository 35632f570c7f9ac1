#include "backend/backend.hpp"

namespace tbs::backend {

const char* to_string(Kind k) {
  switch (k) {
    case Kind::Vgpu: return "vgpu";
    case Kind::Cpu: return "cpu";
  }
  return "?";
}

kernels::ProblemDesc priced_problem(const Capabilities& caps,
                                    const kernels::ProblemDesc& desc) {
  kernels::ProblemDesc view = desc;
  if (view.type == kernels::ProblemType::Pcf && !caps.pcf_price_reads_radius)
    view.radius = 0.0;
  return view;
}

}  // namespace tbs::backend
