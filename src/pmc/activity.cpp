#include "pmc/activity.hpp"

#include <array>

#include "common/error.hpp"

namespace pwx::pmc {

ActivityCounts& ActivityCounts::operator+=(const ActivityCounts& o) {
  cycles += o.cycles;
  ref_cycles += o.ref_cycles;
  instructions += o.instructions;
  load_ins += o.load_ins;
  store_ins += o.store_ins;
  branch_cn += o.branch_cn;
  branch_ucn += o.branch_ucn;
  branch_taken += o.branch_taken;
  branch_misp += o.branch_misp;
  l1d_load_miss += o.l1d_load_miss;
  l1d_store_miss += o.l1d_store_miss;
  l1i_miss += o.l1i_miss;
  l2_data_read += o.l2_data_read;
  l2_data_write += o.l2_data_write;
  l2_inst_read += o.l2_inst_read;
  l2_load_miss += o.l2_load_miss;
  l2_store_miss += o.l2_store_miss;
  l2_inst_miss += o.l2_inst_miss;
  l3_data_read += o.l3_data_read;
  l3_data_write += o.l3_data_write;
  l3_inst_read += o.l3_inst_read;
  l3_load_miss += o.l3_load_miss;
  l3_total_miss += o.l3_total_miss;
  tlb_data_miss += o.tlb_data_miss;
  tlb_inst_miss += o.tlb_inst_miss;
  prefetch_miss += o.prefetch_miss;
  snoop_requests += o.snoop_requests;
  shared_access += o.shared_access;
  clean_exclusive += o.clean_exclusive;
  invalidations += o.invalidations;
  stall_issue_cycles += o.stall_issue_cycles;
  full_issue_cycles += o.full_issue_cycles;
  stall_compl_cycles += o.stall_compl_cycles;
  full_compl_cycles += o.full_compl_cycles;
  resource_stall_cycles += o.resource_stall_cycles;
  mem_write_stall_cycles += o.mem_write_stall_cycles;
  return *this;
}

ActivityCounts& ActivityCounts::operator*=(double factor) {
  cycles *= factor;
  ref_cycles *= factor;
  instructions *= factor;
  load_ins *= factor;
  store_ins *= factor;
  branch_cn *= factor;
  branch_ucn *= factor;
  branch_taken *= factor;
  branch_misp *= factor;
  l1d_load_miss *= factor;
  l1d_store_miss *= factor;
  l1i_miss *= factor;
  l2_data_read *= factor;
  l2_data_write *= factor;
  l2_inst_read *= factor;
  l2_load_miss *= factor;
  l2_store_miss *= factor;
  l2_inst_miss *= factor;
  l3_data_read *= factor;
  l3_data_write *= factor;
  l3_inst_read *= factor;
  l3_load_miss *= factor;
  l3_total_miss *= factor;
  tlb_data_miss *= factor;
  tlb_inst_miss *= factor;
  prefetch_miss *= factor;
  snoop_requests *= factor;
  shared_access *= factor;
  clean_exclusive *= factor;
  invalidations *= factor;
  stall_issue_cycles *= factor;
  full_issue_cycles *= factor;
  stall_compl_cycles *= factor;
  full_compl_cycles *= factor;
  resource_stall_cycles *= factor;
  mem_write_stall_cycles *= factor;
  return *this;
}

double preset_value(Preset preset, const ActivityCounts& c) {
  switch (preset) {
    case Preset::L1_DCM: return c.l1d_load_miss + c.l1d_store_miss;
    case Preset::L1_ICM: return c.l1i_miss;
    case Preset::L1_TCM: return c.l1d_load_miss + c.l1d_store_miss + c.l1i_miss;
    case Preset::L1_LDM: return c.l1d_load_miss;
    case Preset::L1_STM: return c.l1d_store_miss;

    case Preset::L2_DCM: return c.l2_load_miss + c.l2_store_miss;
    case Preset::L2_ICM: return c.l2_inst_miss;
    case Preset::L2_TCM: return c.l2_load_miss + c.l2_store_miss + c.l2_inst_miss;
    case Preset::L2_LDM: return c.l2_load_miss;
    case Preset::L2_STM: return c.l2_store_miss;
    case Preset::L2_DCA: return c.l2_data_read + c.l2_data_write;
    case Preset::L2_DCR: return c.l2_data_read;
    case Preset::L2_DCW: return c.l2_data_write;
    case Preset::L2_ICA: return c.l2_inst_read;
    case Preset::L2_ICR: return c.l2_inst_read;
    case Preset::L2_TCA: return c.l2_data_read + c.l2_data_write + c.l2_inst_read;
    case Preset::L2_TCR: return c.l2_data_read + c.l2_inst_read;
    case Preset::L2_TCW: return c.l2_data_write;

    case Preset::L3_TCM: return c.l3_total_miss;
    case Preset::L3_LDM: return c.l3_load_miss;
    case Preset::L3_DCA: return c.l3_data_read + c.l3_data_write;
    case Preset::L3_DCR: return c.l3_data_read;
    case Preset::L3_DCW: return c.l3_data_write;
    case Preset::L3_ICA: return c.l3_inst_read;
    case Preset::L3_ICR: return c.l3_inst_read;
    case Preset::L3_TCA: return c.l3_data_read + c.l3_data_write + c.l3_inst_read;
    case Preset::L3_TCR: return c.l3_data_read + c.l3_inst_read;
    case Preset::L3_TCW: return c.l3_data_write;

    case Preset::CA_SNP: return c.snoop_requests;
    case Preset::CA_SHR: return c.shared_access;
    case Preset::CA_CLN: return c.clean_exclusive;
    case Preset::CA_INV: return c.invalidations;
    case Preset::CA_ITV: return c.invalidations;  // intervention ~ invalidation traffic

    case Preset::TLB_DM: return c.tlb_data_miss;
    case Preset::TLB_IM: return c.tlb_inst_miss;
    case Preset::PRF_DM: return c.prefetch_miss;

    case Preset::MEM_WCY: return c.mem_write_stall_cycles;
    case Preset::STL_ICY: return c.stall_issue_cycles;
    case Preset::FUL_ICY: return c.full_issue_cycles;
    case Preset::STL_CCY: return c.stall_compl_cycles;
    case Preset::FUL_CCY: return c.full_compl_cycles;
    case Preset::RES_STL: return c.resource_stall_cycles;

    case Preset::BR_UCN: return c.branch_ucn;
    case Preset::BR_CN: return c.branch_cn;
    case Preset::BR_TKN: return c.branch_taken;
    case Preset::BR_NTK: return c.branch_cn - c.branch_taken;
    case Preset::BR_MSP: return c.branch_misp;
    case Preset::BR_PRC: return c.branch_cn - c.branch_misp;
    case Preset::BR_INS: return c.branch_cn + c.branch_ucn;

    case Preset::TOT_INS: return c.instructions;
    case Preset::LD_INS: return c.load_ins;
    case Preset::SR_INS: return c.store_ins;
    case Preset::LST_INS: return c.load_ins + c.store_ins;

    // FP presets model non-Haswell platforms; approximate from completion
    // histogram (not used by the reproduction since they are unavailable).
    case Preset::FP_INS: return 0.0;
    case Preset::FDV_INS: return 0.0;
    case Preset::SP_OPS: return 0.0;
    case Preset::DP_OPS: return 0.0;
    case Preset::VEC_SP: return 0.0;
    case Preset::VEC_DP: return 0.0;
    case Preset::STL_FPU: return 0.0;

    case Preset::TOT_CYC: return c.cycles;
    case Preset::REF_CYC: return c.ref_cycles;

    case Preset::kCount: break;
  }
  throw InvalidArgument("preset_value: invalid preset");
}

NativeSet natives_read_by(std::span<const Preset> presets) {
  static const std::array<NativeSet, kPresetCount> kRead = [] {
    std::array<NativeSet, kPresetCount> read{};
    for (std::size_t p = 0; p < kPresetCount; ++p) {
      const auto preset = static_cast<Preset>(p);
      read[p] = probe_natives_read(
          [preset](const ActivityCounts& counts) { return preset_value(preset, counts); });
    }
    return read;
  }();
  NativeSet read = 0;
  for (const Preset preset : presets) {
    read |= kRead.at(static_cast<std::size_t>(preset));
  }
  return read;
}

}  // namespace pwx::pmc
