#include "sim/noise_model.hh"

// NoiseModel is a plain parameter struct; the channels live in the
// Pauli-transfer frame. This translation unit anchors the header.
