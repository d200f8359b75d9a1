type t = Token_vc | Multi_token | Token_dd | Token_dd_par | Checker | Parallel

let all = [ Token_vc; Multi_token; Token_dd; Token_dd_par; Checker; Parallel ]

let name = function
  | Token_vc -> "token-vc"
  | Multi_token -> "multi-token"
  | Token_dd -> "token-dd"
  | Token_dd_par -> "token-dd-par"
  | Checker -> "checker"
  | Parallel -> "parallel"

let of_string = function
  | "token-multi" -> Some Multi_token
  | s -> List.find_opt (fun a -> name a = s) all

let names_of algos =
  match List.rev_map name algos with
  | last :: (_ :: _ as rest) ->
      String.concat ", " (List.rev rest) ^ " or " ^ last
  | [ last ] -> last
  | _ -> ""

let names = names_of all

let full_width = function
  | Token_dd | Token_dd_par -> true
  | Token_vc | Multi_token | Checker | Parallel -> false

let spec_outcome a spec (r : Detection.result) =
  if full_width a then Detection.project_outcome spec r.outcome else r.outcome

let fault_ok = function
  | Token_vc | Multi_token | Token_dd | Token_dd_par -> true
  | Checker | Parallel -> false

let run a ?fault ?recorder ?(groups = 2) ?domains ?(slice = false)
    ~options ~seed comp spec =
  if Option.is_some fault && not (fault_ok a) then
    invalid_arg ("Algo.run: no fault injection for " ^ name a);
  let dense comp spec =
    match a with
    | Token_vc ->
        Token_vc.detect ?fault ?recorder ~options ~seed comp spec
    | Multi_token ->
        Token_multi.detect ?fault ?recorder ~options
          ~groups:(min groups (Spec.width spec))
          ~seed comp spec
    | Token_dd ->
        Token_dd.detect ?fault ?recorder ~options ~seed comp spec
    | Token_dd_par ->
        Token_dd.detect ?fault ?recorder ~options ~parallel:true ~seed comp
          spec
    | Checker -> Checker_centralized.detect ?recorder ~options ~seed comp spec
    | Parallel ->
        Checker_parallel.detect ?recorder ?domains ~options ~seed comp spec
  in
  if slice then
    Run_common.with_slice ?recorder ~keep_rest:(full_width a) comp spec
      ~run:dense
  else dense comp spec
