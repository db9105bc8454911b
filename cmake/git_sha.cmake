# Build-time provenance stamp, run by the listrank90_git_sha target:
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P git_sha.cmake
# Writes OUTPUT defining LR90_GIT_SHA_BUILT as `git describe --always
# --dirty --abbrev=12` of SOURCE_DIR ("unknown" outside a git checkout),
# and rewrites it only when the value changes, so an unchanged tree
# recompiles nothing.
execute_process(
  COMMAND git describe --always --dirty --abbrev=12
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()
set(content "#define LR90_GIT_SHA_BUILT \"${sha}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUTPUT} "${content}")
endif()
