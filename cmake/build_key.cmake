# Writes OUT, a header defining QCC_BUILD_KEY: a digest of every .cc
# and .hh file under SRC (relative path and contents, in sorted
# order). Run as `cmake -DSRC=<dir> -DOUT=<file> -P build_key.cmake`;
# the top-level CMakeLists.txt reruns it whenever a source changes.
file(GLOB_RECURSE files RELATIVE ${SRC} ${SRC}/*.cc ${SRC}/*.hh)
list(SORT files)
set(acc "")
foreach(f ${files})
    file(SHA256 ${SRC}/${f} h)
    string(APPEND acc "${f} ${h}\n")
endforeach()
string(SHA256 key "${acc}")
string(SUBSTRING ${key} 0 16 key)
set(text "// Generated from the src/ sources; do not edit.\n#define QCC_BUILD_KEY \"${key}\"\n")
if(EXISTS ${OUT})
    file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
    file(WRITE ${OUT} "${text}")
endif()
