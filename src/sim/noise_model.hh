/**
 * @file
 * Noise model of the noisy state (the Pauli-transfer frame,
 * sim/pauli_frame.hh). The paper's noisy case studies (Section VI-D)
 * use a depolarizing error model with a realistic CNOT error rate; we
 * reproduce that and additionally allow single-qubit depolarizing
 * noise.
 */

#ifndef QCC_SIM_NOISE_MODEL_HH
#define QCC_SIM_NOISE_MODEL_HH

namespace qcc {

/** Depolarizing-noise parameters applied after each gate. */
struct NoiseModel
{
    /** Two-qubit depolarizing probability after each CNOT/SWAP-CNOT.
     *  Zero by default: a default NoiseModel is the identity. */
    double cnotDepolarizing = 0.0;

    /** Single-qubit depolarizing probability after 1q gates. */
    double singleQubitDepolarizing = 0.0;

    /** The paper's Section VI-D configuration: CNOT error 1e-4. */
    static NoiseModel
    paperDefault()
    {
        NoiseModel m;
        m.cnotDepolarizing = 1e-4;
        return m;
    }

    /** True if every channel is the identity. */
    bool
    isNoiseless() const
    {
        return cnotDepolarizing == 0.0 &&
               singleQubitDepolarizing == 0.0;
    }
};

} // namespace qcc

#endif // QCC_SIM_NOISE_MODEL_HH
