// Figure 7(b) reproduction: the execution-simulation gap
// ESG(n) = T_sim(n) - T_exe(n), extrapolated over n = 10..10^4 from
// power-law fits of measured data, with and without the feedback-loop
// technique (k = n chained challenges multiply both sides by n).
//
// The paper's headline: 1 s of ESG needs ~900 nodes without the feedback
// loop and ~190 with it.  The absolute crossovers depend on the simulator's
// machine (theirs: 2.93 GHz Xeon + boost); we report our own crossovers
// and, like the paper, the ~4-5x node-count reduction the loop buys.
//
// Two simulators are measured: push-relabel (the paper's model of the
// attacker) and the certified star-cut simulator (maxflow::star_certificate,
// push-relabel on a miss), whose witness is a genuine maximum flow.  For
// the latter the bench also checks, per measured size, that the witness
// passes the residual-graph check at the serving tolerance (10% of the
// mean capacity), i.e. that the Verifier would accept it.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "maxflow/solver.hpp"
#include "maxflow/star_certificate.hpp"
#include "maxflow/verify.hpp"
#include "ppuf/delay.hpp"
#include "ppuf/ppuf.hpp"
#include "graph/complete.hpp"
#include "ppuf/sim_model.hpp"
#include "util/statistics.hpp"
#include "util/fit.hpp"

using namespace ppuf;

namespace {

struct EsgModel {
  util::PowerLaw sim;
  util::PowerLaw exe;

  double esg(double n, bool feedback) const {
    const double k = feedback ? n : 1.0;
    return k * (sim(n) - exe(n));
  }
};

double esg_plain(double n, const void* ctx) {
  return static_cast<const EsgModel*>(ctx)->esg(n, false);
}
double esg_feedback(double n, const void* ctx) {
  return static_cast<const EsgModel*>(ctx)->esg(n, true);
}

}  // namespace

int main() {
  util::print_banner(std::cout,
                     "Figure 7(b): ESG scaling with/without feedback loop");

  // Measure the two sides and fit power laws.  The simulation side is
  // timed out to n = 400 (instances drawn from the measured capacity
  // distribution beyond the characterised sizes, as in Fig. 7a) so the
  // extrapolation toward 10^4 nodes captures the rising exponent.
  const int reps = static_cast<int>(bench::scaled(5, 3));
  double cap_mean = 30e-9, cap_sigma = 15e-9;
  {
    PpufParams params;
    params.node_count = 40;
    params.grid_size = 8;
    MaxFlowPpuf puf(params, 7140);
    SimulationModel model(puf);
    util::RunningStats caps;
    for (graph::EdgeId e = 0; e < puf.layout().edge_count(); ++e)
      caps.add(model.capacity(0, e, 0));
    cap_mean = caps.mean();
    cap_sigma = caps.stddev();
  }
  const std::vector<std::size_t> sizes{20, 40, 60, 80, 100,
                                       150, 200, 300, 400};
  std::vector<double> ns, t_sim, t_cert, t_exe;
  std::size_t cert_accepted = 0;
  for (const std::size_t n : sizes) {
    util::Rng rng(n);
    const graph::Digraph g =
        graph::make_complete(n, [&](graph::VertexId, graph::VertexId) {
          return std::max(cap_mean * 0.01,
                          cap_mean + cap_sigma * rng.gaussian());
        });
    const graph::FlowProblem problem{
        &g, 0, static_cast<graph::VertexId>(n - 1)};
    const auto solver = maxflow::make_solver(maxflow::Algorithm::kPushRelabel);
    // A simulator must solve both networks.
    ns.push_back(static_cast<double>(n));
    t_sim.push_back(
        2.0 * bench::time_seconds_median([&] { solver->solve(problem); },
                                         reps));
    maxflow::FlowResult witness;
    t_cert.push_back(2.0 * bench::time_seconds_median(
                               [&] {
                                 if (!maxflow::star_certificate(problem,
                                                                &witness))
                                   witness = solver->solve(problem);
                               },
                               reps));
    cert_accepted += maxflow::verify_flow(g, problem.source, problem.sink,
                                          witness.edge_flow, 0.10 * cap_mean)
                             .optimal
                         ? 1
                         : 0;
    t_exe.push_back(analytic_delay_bound(PpufParams{}, n));
  }
  const util::PowerLaw exe_fit = util::fit_power_law(ns, t_exe);
  const EsgModel model{util::fit_power_law(ns, t_sim), exe_fit};
  const EsgModel certified{util::fit_power_law(ns, t_cert), exe_fit};
  std::cout << "fit: T_sim ~ " << model.sim.to_string()
            << " s (push-relabel), " << certified.sim.to_string()
            << " s (certified), T_exe ~ " << model.exe.to_string()
            << " s\n";
  std::cout << "certified witness passes the serving-tolerance residual "
               "check at "
            << cert_accepted << "/" << sizes.size() << " measured sizes\n\n";

  util::Table t({"nodes", "ESG no loop [s]", "ESG with loop k=n [s]",
                 "certified no loop [s]", "certified loop k=n [s]"});
  for (double n = 10.0; n <= 10000.0 * 1.001; n *= std::sqrt(10.0)) {
    t.add_row({std::to_string(static_cast<long>(n + 0.5)),
               util::Table::sci(model.esg(n, false)),
               util::Table::sci(model.esg(n, true)),
               util::Table::sci(certified.esg(n, false)),
               util::Table::sci(certified.esg(n, true))});
  }
  t.print(std::cout);

  for (const auto& [name, m] : {std::pair{"push-relabel", &model},
                                std::pair{"certified", &certified}}) {
    const double n_plain =
        util::solve_monotone(esg_plain, m, 1.0, 10.0, 1e7);
    const double n_loop =
        util::solve_monotone(esg_feedback, m, 1.0, 10.0, 1e7);
    std::cout << "\nnodes needed for 1 s ESG (" << name
              << " simulator):  without loop "
              << util::Table::num(n_plain, 0) << ",  with loop "
              << util::Table::num(n_loop, 0) << "  (reduction "
              << util::Table::num(n_plain / n_loop, 1) << "x)";
  }
  std::cout << "\n";
  bench::paper_note(
      "900 nodes without / 190 with the feedback loop on the paper's "
      "testbed — a ~4.7x reduction; the reduction factor is the "
      "machine-independent part of the claim.  Against the certified "
      "star-cut simulator the crossovers move up: the simulator the "
      "deadline must beat is O(n^2), not a push-relabel solve.");
  return 0;
}
