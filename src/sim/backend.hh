/**
 * @file
 * Pluggable simulation backend for the VQE driver. SimBackend unifies
 * the ideal statevector simulator and the noisy density-matrix
 * simulator behind one interface (prepare / applyPauliRotation /
 * applyAnsatz / Pauli-sum expectation / measurement probabilities),
 * so the energy-evaluation hot path — and everything layered on it
 * (VQE, benches, studies) — runs unmodified against either.
 * applyAnsatz is the policy hook: the statevector backend replays the
 * Pauli-rotation program with the direct kernels, while the
 * density-matrix backend chain-synthesizes a gate circuit and runs it
 * with its noise channels, reproducing the paper's Section VI-D noisy
 * execution model. Other gate circuits run on the simulator itself
 * (state().applyCircuit).
 */

#ifndef QCC_SIM_BACKEND_HH
#define QCC_SIM_BACKEND_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "ansatz/uccsd.hh"
#include "circuit/circuit.hh"
#include "pauli/pauli_sum.hh"
#include "sim/density_matrix.hh"
#include "sim/noise_model.hh"
#include "sim/statevector.hh"

namespace qcc {

/** Abstract simulator: a resettable n-qubit state plus the VQE ops. */
class SimBackend
{
  public:
    virtual ~SimBackend() = default;

    virtual unsigned numQubits() const = 0;

    /** Reset to the computational basis state |basis>. */
    virtual void prepare(uint64_t basis = 0) = 0;

    /** Apply exp(i theta P) exactly. */
    virtual void applyPauliRotation(double theta,
                                    const PauliString &p) = 0;

    /** Expectation of a Pauli-sum Hamiltonian in the current state. */
    virtual double expectation(const PauliSum &h) const = 0;

    /**
     * Shot-sampling hook: computational-basis outcome probabilities
     * of the current state after the given measurement-basis
     * rotations (the basisChangeOps convention: X -> H, Y -> H Sdg).
     * The state is not consumed — SamplingEngine draws all of a
     * family's shots from one distribution, which is exact for the
     * simulator (repeated preparation on hardware is i.i.d.).
     */
    virtual std::vector<double> measurementProbabilities(
        const std::vector<std::pair<unsigned, PauliOp>> &rotations)
        const = 0;

    /**
     * Prepare |psi(theta)| for an ansatz: by default the HF basis
     * state followed by the direct rotation sequence. Backends with a
     * gate-level execution model override this.
     */
    virtual void applyAnsatz(const Ansatz &ansatz,
                             const std::vector<double> &params);

    /**
     * Fast-path hook: the underlying Statevector when this backend is
     * a pure state, nullptr otherwise. Lets ExpectationEngine apply
     * its prebuilt H to the amplitudes directly.
     */
    virtual const Statevector *statevector() const { return nullptr; }
};

/** Ideal backend over the dense statevector simulator. */
class StatevectorBackend : public SimBackend
{
  public:
    explicit StatevectorBackend(unsigned n) : sv(n) {}

    unsigned numQubits() const override { return sv.numQubits(); }
    void prepare(uint64_t basis = 0) override { sv.reset(basis); }

    void
    applyPauliRotation(double theta, const PauliString &p) override
    {
        sv.applyPauliRotation(theta, p);
    }

    double
    expectation(const PauliSum &h) const override
    {
        return sv.expectation(h);
    }

    std::vector<double>
    measurementProbabilities(
        const std::vector<std::pair<unsigned, PauliOp>> &rotations)
        const override
    {
        return sv.basisProbabilities(rotations);
    }

    const Statevector *statevector() const override { return &sv; }

    Statevector &state() { return sv; }
    const Statevector &state() const { return sv; }

  private:
    Statevector sv;
};

/**
 * Noisy backend over the density-matrix simulator. applyAnsatz
 * chain-synthesizes the rotation program to gates and executes them
 * with the configured depolarizing noise model, so ansatz CNOTs pay
 * their noise cost exactly as in the paper's case studies.
 */
class DensityMatrixBackend : public SimBackend
{
  public:
    explicit DensityMatrixBackend(unsigned n, NoiseModel noise = {})
        : rho(n), noiseModel(noise)
    {
    }

    unsigned numQubits() const override { return rho.numQubits(); }
    void prepare(uint64_t basis = 0) override { rho.reset(basis); }

    void
    applyPauliRotation(double theta, const PauliString &p) override
    {
        rho.applyPauliRotation(theta, p);
    }

    double
    expectation(const PauliSum &h) const override
    {
        return rho.expectation(h);
    }

    std::vector<double>
    measurementProbabilities(
        const std::vector<std::pair<unsigned, PauliOp>> &rotations)
        const override
    {
        return rho.basisProbabilities(rotations);
    }

    void applyAnsatz(const Ansatz &ansatz,
                     const std::vector<double> &params) override;

    const NoiseModel &noise() const { return noiseModel; }
    DensityMatrix &state() { return rho; }
    const DensityMatrix &state() const { return rho; }

  private:
    DensityMatrix rho;
    NoiseModel noiseModel;
};

} // namespace qcc

#endif // QCC_SIM_BACKEND_HH
