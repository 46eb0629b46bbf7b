#include "data/datasets.h"

#include <algorithm>

#include "util/run_beside.h"
#include "util/string_util.h"

namespace aigs {
namespace {

CatalogParams ScaleParams(CatalogParams params, double scale) {
  AIGS_CHECK(scale > 0 && scale <= 1.0);
  if (scale < 1.0) {
    params.num_nodes = std::max<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(params.num_nodes) *
                                 scale),
        params.max_out_degree + static_cast<std::size_t>(params.height) + 2);
    const auto scaled_deg = static_cast<std::size_t>(
        static_cast<double>(params.max_out_degree) * scale);
    params.max_out_degree = std::max<std::size_t>(scaled_deg, 8);
    params.num_nodes =
        std::max(params.num_nodes, params.max_out_degree +
                                        static_cast<std::size_t>(params.height) +
                                        2);
  }
  return params;
}

std::uint64_t ScaleObjects(std::uint64_t objects, double scale,
                           std::size_t num_nodes) {
  const auto scaled = static_cast<std::uint64_t>(
      static_cast<double>(objects) * scale * scale);
  return std::max<std::uint64_t>(scaled, num_nodes);
}

// Generates and indexes the hierarchy while the Zipf object counts are
// computed beside it: the counts depend only on (n, objects, seed), not on
// the graph, and each side takes about a millisecond at paper scale.
Dataset MakeDataset(std::string name, const CatalogParams& params,
                    std::uint64_t objects,
                    Digraph (*generate)(const CatalogParams&),
                    const ReachabilityOptions& reach) {
  Distribution counts;
  BesideTask zipf = RunBeside([&] {
    counts = AssignZipfObjectCounts(params.num_nodes, objects, /*s=*/1.0,
                                    params.seed + 17);
  });
  auto h = Hierarchy::Build(generate(params), reach);
  zipf.Join();
  AIGS_CHECK(h.ok());
  return Dataset{.name = std::move(name),
                 .hierarchy = *std::move(h),
                 .real_distribution = std::move(counts),
                 .num_objects = objects};
}

}  // namespace

Dataset MakeAmazonDataset(double scale, const ReachabilityOptions& reach) {
  const CatalogParams params = ScaleParams(AmazonParams(), scale);
  return MakeDataset("Amazon", params,
                     ScaleObjects(kAmazonNumObjects, scale, params.num_nodes),
                     &GenerateCatalogTree, reach);
}

Dataset MakeImageNetDataset(double scale, const ReachabilityOptions& reach) {
  const CatalogParams params = ScaleParams(ImageNetParams(), scale);
  return MakeDataset("ImageNet", params,
                     ScaleObjects(kImageNetNumObjects, scale, params.num_nodes),
                     &GenerateCatalogDag, reach);
}

std::string DescribeDataset(const Dataset& dataset) {
  const Hierarchy& h = dataset.hierarchy;
  std::string out = dataset.name;
  out += ": #nodes=" + FormatWithCommas(h.NumNodes());
  out += " height=" + std::to_string(h.Height());
  out += " max_deg=" + std::to_string(h.MaxOutDegree());
  out += std::string(" type=") + (h.is_tree() ? "Tree" : "DAG");
  out += " #objects=" + FormatWithCommas(dataset.num_objects);
  return out;
}

}  // namespace aigs
